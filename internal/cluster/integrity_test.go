package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// corruptOnce wraps a worker handler and lets damage write the FIRST
// 200 shard response in place of the good body — the wire-level silent
// corruption the coordinator's end-to-end check exists to catch.  The
// good response's headers are already set on w.
func corruptOnce(done *atomic.Bool, damage func(w http.ResponseWriter, body []byte)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/cluster/v1/shards") || done.Load() {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			if rec.Code == http.StatusOK && done.CompareAndSwap(false, true) {
				damage(w, rec.Body.Bytes())
				return
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	}
}

// TestClusterCorruptShardRedispatch is the end-to-end integrity check:
// a worker whose first shard response has one byte flipped (the frame's
// CRC no longer matches it), has junk appended after the record, or
// declares a 2 GB body and streams it must be caught by the coordinator
// — reading at most one byte past the record the plan implies — the
// shard re-dispatched, and the final result bitwise identical to a clean
// run.
func TestClusterCorruptShardRedispatch(t *testing.T) {
	x := synthX(25, 12, 31)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 5}
	want := standalone(t, x, lab, opt)
	for name, damage := range map[string]func(http.ResponseWriter, []byte){
		"stale-crc": func(w http.ResponseWriter, body []byte) {
			body[len(body)/2] ^= 0x01
			w.Write(body)
		},
		"junk-appended": func(w http.ResponseWriter, body []byte) {
			body = append(body, "junk"...)
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		},
		"2GB-length": func(w http.ResponseWriter, body []byte) {
			const declared = 2 << 30
			w.Header().Set("Content-Length", strconv.Itoa(declared))
			if _, err := w.Write(body); err != nil {
				return
			}
			// Stream until the coordinator hangs up.
			zeros := make([]byte, 64<<10)
			for sent := len(body); sent < declared; sent += len(zeros) {
				if _, err := w.Write(zeros[:min(len(zeros), declared-sent)]); err != nil {
					return
				}
			}
		},
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
// body): whether the flip lands in the frame's length word, its CRC or
// the counts, no damaged count may reach the result.
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
