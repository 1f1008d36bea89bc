package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/faultinject"
	"sprint/internal/metrics"
)

// TestShardResponseCRC pins the checksum contract: the CRC covers every
// result-bearing field, and only those — timing metadata must not
// invalidate a response relayed through a cache or proxy.
func TestShardResponseCRC(t *testing.T) {
	base := cluster.ShardResponse{
		Lo: 10, Next: 20, Hi: 30, TotalB: 100, B: 10,
		Fingerprint: 0xabcdef, Raw: []int64{1, 2, 3}, Adj: []int64{3, 2, 1},
		ElapsedMS: 5,
	}
	want := base.CRC()
	if want == 0 {
		t.Fatal("CRC of a populated response is zero (zero is rejected as corrupt)")
	}
	if got := base.CRC(); got != want {
		t.Fatalf("CRC not stable: %x then %x", want, got)
	}

	mutations := []struct {
		name string
		mut  func(r *cluster.ShardResponse)
	}{
		{"Lo", func(r *cluster.ShardResponse) { r.Lo++ }},
		{"Next", func(r *cluster.ShardResponse) { r.Next++ }},
		{"Hi", func(r *cluster.ShardResponse) { r.Hi++ }},
		{"TotalB", func(r *cluster.ShardResponse) { r.TotalB++ }},
		{"B", func(r *cluster.ShardResponse) { r.B++ }},
		{"Fingerprint", func(r *cluster.ShardResponse) { r.Fingerprint++ }},
		{"Raw value", func(r *cluster.ShardResponse) { r.Raw[1]++ }},
		{"Adj value", func(r *cluster.ShardResponse) { r.Adj[0]++ }},
		{"Raw truncated", func(r *cluster.ShardResponse) { r.Raw = r.Raw[:2] }},
		{"Adj extended", func(r *cluster.ShardResponse) { r.Adj = append(r.Adj, 0) }},
	}
	for _, m := range mutations {
		r := base
		r.Raw = append([]int64(nil), base.Raw...)
		r.Adj = append([]int64(nil), base.Adj...)
		m.mut(&r)
		if r.CRC() == want {
			t.Errorf("%s: CRC unchanged after mutation", m.name)
		}
	}

	// Timing is metadata, not a result: excluded by design.
	r := base
	r.ElapsedMS = 99999
	if r.CRC() != want {
		t.Error("ElapsedMS changed the CRC; it must be excluded")
	}
}

// corruptOnce wraps a worker handler and applies damage to the FIRST
// shard response — the wire-level silent corruption the coordinator's
// end-to-end check exists to catch.  Deterministic, unlike a random byte
// flip: the JSON stays valid, so only the CRC check can reject it.
func corruptOnce(done *atomic.Bool, damage func(*cluster.ShardResponse)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/cluster/v1/shards") || done.Load() {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			var resp cluster.ShardResponse
			if rec.Code == http.StatusOK && json.Unmarshal(body, &resp) == nil && len(resp.Raw) > 0 && done.CompareAndSwap(false, true) {
				damage(&resp)
				body, _ = json.Marshal(&resp)
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.Header().Set("Content-Length", "")
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// TestClusterCorruptShardRedispatch is the end-to-end integrity check:
// a worker whose first shard response carries silently damaged counts
// (valid JSON, stale CRC) or no checksum at all (zero CRC — there is no
// pre-CRC worker to interoperate with) must be caught by the coordinator,
// the shard re-dispatched, and the final result bitwise identical to a
// clean run.
func TestClusterCorruptShardRedispatch(t *testing.T) {
	x := synthX(25, 12, 31)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 5}
	want := standalone(t, x, lab, opt)
	for name, damage := range map[string]func(*cluster.ShardResponse){
		"stale-crc": func(r *cluster.ShardResponse) { r.Raw[0] += 7 }, // CRC64 left describing the true counts
		"zero-crc":  func(r *cluster.ShardResponse) { r.CRC64 = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			var corrupted atomic.Bool
			w1 := newWorkerNode(t, corruptOnce(&corrupted, damage))
			w2 := newWorkerNode(t, nil)
			for _, n := range []*workerNode{w1, w2} {
				if _, _, err := n.srv.Manager().PutDataset(x); err != nil {
					t.Fatal(err)
				}
			}
			reg := metrics.New()
			coord, cm := coordManager(t, cluster.CoordinatorConfig{
				Workers: []string{w1.ts.URL, w2.ts.URL},
				Metrics: reg,
			})

			got := runOn(t, cm, x, lab, opt)
			sameRes(t, name, got, want)

			if !corrupted.Load() {
				t.Fatal("test harness never injected the corrupt response")
			}
			if n := reg.Counter("integrity_shard_corrupt_total").Value(); n == 0 {
				t.Error("corrupt shard not counted by integrity_shard_corrupt_total")
			}
			if n := reg.Counter("cluster_shard_retries_total", "reason", "corrupt").Value(); n == 0 {
				t.Error("corrupt shard not re-dispatched (no corrupt-reason retry)")
			}
			if coord.Info().Coordinator.ShardRetries == 0 {
				t.Error("ShardRetries not incremented")
			}
		})
	}
}

// TestClusterFaultInjectTransportCorrupt drives the same invariant
// through the faultinject transport (a random byte flip in the response
// body): whether the mangled body dies in the JSON decoder or at the
// CRC check, no damaged count may reach the result.
func TestClusterFaultInjectTransportCorrupt(t *testing.T) {
	x := synthX(25, 12, 32)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 6}
	want := standalone(t, x, lab, opt)

	w1 := newWorkerNode(t, nil)
	w2 := newWorkerNode(t, nil)
	for _, n := range []*workerNode{w1, w2} {
		if _, _, err := n.srv.Manager().PutDataset(x); err != nil {
			t.Fatal(err)
		}
	}
	inj, err := faultinject.Parse("seed=3;rpc.shard.resp:corrupt:n=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(inj)
	defer faultinject.Disable()

	reg := metrics.New()
	coord, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers: []string{w1.ts.URL, w2.ts.URL},
		Metrics: reg,
		Client:  &http.Client{Transport: &faultinject.Transport{}},
	})

	got := runOn(t, cm, x, lab, opt)
	sameRes(t, "faultinject-corrupt", got, want)
	if st := inj.Stats(); st["rpc.shard.resp:corrupt"] != 1 {
		t.Fatalf("injector stats %v, want one rpc.shard.resp corrupt fire", st)
	}
	if coord.Info().Coordinator.ShardRetries == 0 {
		t.Error("corrupted response did not cause a re-dispatch")
	}
}

// TestClusterPushDigestEcho pins the dataset-push integrity check: a
// worker that echoes the WRONG content id for a pushed dataset is
// rejected (counted in integrity_push_digest_mismatch_total) and the
// job still converges through the remaining paths.
func TestClusterPushDigestEcho(t *testing.T) {
	x := synthX(25, 12, 33)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 7}
	want := standalone(t, x, lab, opt)

	// lyingEcho rewrites the id in every dataset-upload response.
	lyingEcho := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/v1/datasets") || r.Method != http.MethodPut {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var doc map[string]any
			body := rec.Body.Bytes()
			if json.Unmarshal(body, &doc) == nil {
				doc["id"] = "sha256:0000000000000000000000000000000000000000000000000000000000000000"
				body, _ = json.Marshal(doc)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}

	// holdFirstShard keeps the honest worker's first shard request until
	// the liar's echo has been rejected.  Without it, w2 (and the
	// coordinator's local loop behind it) can claim every shard before w1
	// is sent one, and w1 never receives a push to lie about.
	reg := metrics.New()
	mismatches := reg.Counter("integrity_push_digest_mismatch_total")
	var heldTooLong atomic.Bool
	holdFirstShard := func(next http.Handler) http.Handler {
		var once sync.Once
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/cluster/v1/shards") {
				once.Do(func() {
					deadline := time.Now().Add(10 * time.Second)
					for mismatches.Value() == 0 && r.Context().Err() == nil {
						if time.Now().After(deadline) {
							heldTooLong.Store(true)
							return
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
			next.ServeHTTP(w, r)
		})
	}

	// w1 starts empty and lies about what it registered; w2 is preloaded
	// and honest, so the job has a clean path to converge through.
	w1 := newWorkerNode(t, lyingEcho)
	w2 := newWorkerNode(t, holdFirstShard)
	if _, _, err := w2.srv.Manager().PutDataset(x); err != nil {
		t.Fatal(err)
	}

	_, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers: []string{w1.ts.URL, w2.ts.URL},
		Metrics: reg,
	})

	got := runOn(t, cm, x, lab, opt)
	if heldTooLong.Load() {
		t.Fatal("honest worker's first shard held 10 s without a lying push echo being counted")
	}
	sameRes(t, "push-echo", got, want)
	if mismatches.Value() == 0 {
		t.Error("lying push echo not counted")
	}
}
