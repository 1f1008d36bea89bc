package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/faultinject"
	"sprint/internal/httpapi"
	"sprint/internal/jobs"
	"sprint/internal/metrics"
)

// leaseWorkerNode is a worker with tiny compute windows (fine-grained
// cancellation boundaries) for the lease tests.
func leaseWorkerNode(t *testing.T) *workerNode {
	t.Helper()
	srv, err := httpapi.New(httpapi.Config{Jobs: jobs.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{Source: srv.Manager(), Every: 5, NProcs: 1})
	srv.AttachCluster(w)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &workerNode{srv: srv, w: w, ts: ts}
}

// shardFingerprint reproduces the plan identity the coordinator would
// stamp on a shard request for this spec.
func shardFingerprint(t *testing.T, n *workerNode, id string, lab []int, opt core.Options) (uint64, int64) {
	t.Helper()
	prep, release, err := n.srv.Manager().PreparedDataset(id, lab, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	plan, err := core.PlanRun(prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Fingerprint, plan.TotalB
}

// postShard sends one raw shard RPC and decodes whatever comes back.
func postShard(t *testing.T, url string, req *cluster.ShardRequest) (int, *core.Checkpoint, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+cluster.ShardPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode == http.StatusOK {
		rec, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := core.DecodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return hr.StatusCode, resp, ""
	}
	var eb struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	_ = json.NewDecoder(hr.Body).Decode(&eb)
	return hr.StatusCode, nil, eb.Reason
}

// TestWorkerLeaseExpiryParksAndResumes pins the orphan-shard lease
// protocol, expiry side: a shard granted a lease that nobody renews is
// cancelled at a window boundary, its prefix parked in retention, and a
// later re-probe of the same window resumes from the parked prefix —
// the final counts bitwise identical to an uninterrupted compute.
func TestWorkerLeaseExpiryParksAndResumes(t *testing.T) {
	x := synthX(120, 20, 51)
	lab := make([]int, 20)
	for i := 10; i < 20; i++ {
		lab[i] = 1
	}
	// Sized against the lease below: ~25 ms of kernel per 60000
	// permutations since the fused avx2 routine, so the window must be
	// several leases long for the expiry to land inside it.
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 240000, Seed: 17}

	n := leaseWorkerNode(t)
	info, _, err := n.srv.Manager().PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	fp, totalB := shardFingerprint(t, n, info.ID, lab, opt)
	req := &cluster.ShardRequest{
		JobKey: "lease-expiry", DatasetID: info.ID, Labels: lab, Options: opt,
		Lo: 0, Hi: totalB, TotalB: totalB, Fingerprint: fp, NProcs: 1,
		LeaseMS: 40, // expires long before the 240000-permutation window finishes
	}
	code, part, reason := postShard(t, n.ts.URL, req)
	if code != http.StatusOK || part == nil {
		// The lease can lapse before the first window boundary on a
		// heavily loaded host; then the worker refuses with the lease
		// reason instead of shipping a prefix.
		if reason != "lease_lapsed" {
			t.Fatalf("lapsed shard: status %d reason %q, want partial or lease_lapsed", code, reason)
		}
	} else if part.Next == part.Hi || part.Done <= 0 || part.Next >= totalB {
		t.Fatalf("lapsed shard returned Partial=%v [%d,%d) of %d, want a strict prefix",
			part.Next < part.Hi, part.Next-part.Done, part.Next, totalB)
	}
	wi := n.w.Info().Worker
	if wi.LeaseExpired < 1 {
		t.Fatalf("lease_expired = %d, want >= 1", wi.LeaseExpired)
	}
	if part != nil && wi.ShardsRetained < 1 {
		t.Fatalf("shards_retained = %d after a parked partial, want >= 1", wi.ShardsRetained)
	}

	// Re-probe the identical window under a lease that outlasts it: the
	// parked prefix seeds the compute and only the remainder runs.
	req.LeaseMS = 60000
	code, full, reason := postShard(t, n.ts.URL, req)
	if code != http.StatusOK || full == nil {
		t.Fatalf("re-probe: status %d reason %q", code, reason)
	}
	if full.Next < full.Hi || full.Next != totalB || full.Done != totalB {
		t.Fatalf("re-probe returned Partial=%v Next=%d B=%d, want the complete window", full.Next < full.Hi, full.Next, full.Done)
	}
	if part != nil && n.w.Info().Worker.RetainedResumes != 1 {
		t.Fatalf("retained_resumes = %d, want 1", n.w.Info().Worker.RetainedResumes)
	}

	// Bitwise identity vs an uninterrupted compute on a fresh worker.
	clean := leaseWorkerNode(t)
	if _, _, err := clean.srv.Manager().PutDataset(x); err != nil {
		t.Fatal(err)
	}
	code, want, reason := postShard(t, clean.ts.URL, req)
	if code != http.StatusOK || want == nil {
		t.Fatalf("clean compute: status %d reason %q", code, reason)
	}
	if !bytes.Equal(full.AppendRecord(nil), want.AppendRecord(nil)) || full.Done != want.Done {
		t.Fatalf("resumed shard record B %d != clean B %d", full.Done, want.Done)
	}
	for i := range want.Raw {
		if full.Raw[i] != want.Raw[i] || full.Adj[i] != want.Adj[i] {
			t.Fatalf("count[%d] raw/adj (%d,%d) != clean (%d,%d)", i, full.Raw[i], full.Adj[i], want.Raw[i], want.Adj[i])
		}
	}
}

// TestWorkerAuthoritativeDisownParksAndRetains pins the disown side:
// every lease heartbeat is the coordinator's complete active set, so
// one that does NOT list an in-flight shard's fingerprint cancels the
// compute immediately — with no "authoritative" key in the body — but
// never purges retention, because a parked prefix is exactly what a
// restarted coordinator comes back for.
func TestWorkerAuthoritativeDisownParksAndRetains(t *testing.T) {
	x := synthX(120, 20, 52)
	lab := make([]int, 20)
	for i := 10; i < 20; i++ {
		lab[i] = 1
	}
	// Long enough that the heartbeat below lands while it computes.
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 240000, Seed: 19}

	n := leaseWorkerNode(t)
	info, _, err := n.srv.Manager().PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	fp, totalB := shardFingerprint(t, n, info.ID, lab, opt)
	req := &cluster.ShardRequest{
		JobKey: "disown", DatasetID: info.ID, Labels: lab, Options: opt,
		Lo: 0, Hi: totalB, TotalB: totalB, Fingerprint: fp, NProcs: 1,
		LeaseMS: 60000, // generous: only the disown may stop this compute
	}
	type outcome struct {
		code   int
		resp   *core.Checkpoint
		reason string
	}
	done := make(chan outcome, 1)
	go func() {
		c, r, reason := postShard(t, n.ts.URL, req)
		done <- outcome{c, r, reason}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for n.w.Info().Worker.ShardsActive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard never started computing")
		}
		runtime.Gosched()
	}

	// The coordinator of record says: my complete active set is empty.
	var ack map[string]any
	hb := []byte(`{"fingerprints":[],"lease_ms":60000}`)
	hr, err := http.Post(n.ts.URL+cluster.LeasesPath, "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || ack["ok"] != true {
		t.Fatalf("heartbeat answered %d %v, want 200 {\"ok\":true}", hr.StatusCode, ack)
	}

	out := <-done
	if out.code == http.StatusOK {
		if out.resp.Next == out.resp.Hi {
			t.Fatal("disowned shard returned a complete window; the cancel never landed")
		}
	} else if out.reason != "lease_lapsed" {
		t.Fatalf("disowned shard: status %d reason %q", out.code, out.reason)
	}
	wi := n.w.Info().Worker
	if wi.LeaseDisowned != 1 {
		t.Fatalf("lease_disowned = %d, want 1", wi.LeaseDisowned)
	}
	if out.resp != nil && wi.ShardsRetained < 1 {
		t.Fatal("disown purged retention; parked results must survive a disown")
	}

	// The window is still recoverable: a re-probe completes it.
	code, full, reason := postShard(t, n.ts.URL, req)
	if code != http.StatusOK || full == nil || full.Next < full.Hi {
		t.Fatalf("post-disown re-probe: status %d reason %q", code, reason)
	}
	if full.Done != totalB {
		t.Fatalf("post-disown window B = %d, want %d", full.Done, totalB)
	}
}

// TestWorkerShardContract: a shard request must name its plan
// (fingerprint, total_b) and hold a lease.  One that lacks any of the
// three answers 400, like an undecodable body, and computes nothing.
func TestWorkerShardContract(t *testing.T) {
	x := synthX(30, 12, 53)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 7}
	n := leaseWorkerNode(t)
	info, _, err := n.srv.Manager().PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	fp, totalB := shardFingerprint(t, n, info.ID, lab, opt)
	for _, tc := range []struct {
		name   string
		mutate func(*cluster.ShardRequest)
	}{
		{"fingerprint 0", func(r *cluster.ShardRequest) { r.Fingerprint = 0 }},
		{"total_b 0", func(r *cluster.ShardRequest) { r.TotalB = 0 }},
		{"lease_ms 0", func(r *cluster.ShardRequest) { r.LeaseMS = 0 }},
	} {
		req := &cluster.ShardRequest{
			JobKey: "contract", DatasetID: info.ID, Labels: lab, Options: opt,
			Lo: 0, Hi: totalB, TotalB: totalB, Fingerprint: fp, NProcs: 1, LeaseMS: 60000,
		}
		tc.mutate(req)
		if code, _, _ := postShard(t, n.ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if wi := n.w.Info().Worker; wi.ShardsServed != 0 || wi.ShardsPartial != 0 || wi.ShardsRefused != 0 {
		t.Fatalf("contract violations reached the compute path: served %d partial %d refused %d",
			wi.ShardsServed, wi.ShardsPartial, wi.ShardsRefused)
	}
}

// TestClusterLeaseFloor: a lease under the wire's 1 ms granularity is
// sent as 1 ms, not truncated to 0 (which the shard contract refuses),
// and the job still finishes bitwise identical.
func TestClusterLeaseFloor(t *testing.T) {
	x := synthX(30, 12, 54)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 9}
	var mu sync.Mutex
	var leases []int64
	w := newWorkerNode(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == "POST" && r.URL.Path == cluster.ShardPath {
				body, _ := io.ReadAll(r.Body)
				var req cluster.ShardRequest
				if err := json.Unmarshal(body, &req); err == nil {
					mu.Lock()
					leases = append(leases, req.LeaseMS)
					mu.Unlock()
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(rw, r)
		})
	})
	_, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers:       []string{w.ts.URL},
		LeaseDuration: 500 * time.Microsecond,
	})
	sameRes(t, "lease-floor", runOn(t, cm, x, lab, opt), standalone(t, x, lab, opt))
	mu.Lock()
	defer mu.Unlock()
	if len(leases) == 0 {
		t.Fatal("no shard request reached the worker")
	}
	for i, l := range leases {
		if l != 1 {
			t.Fatalf("shard request %d: lease_ms %d, want 1", i, l)
		}
	}
}

// TestLeaseHeartbeatFollowsLease: the coordinator's heartbeat runs at a
// third of the lease however short the lease is, so a healthy
// coordinator's shards never lapse — no lease expiry on the worker, no
// partial re-dispatch — and the job is bitwise identical to a standalone
// run.  A heartbeat held to a fixed floor above the lease lets a 30 ms
// lease lapse between beats.
func TestLeaseHeartbeatFollowsLease(t *testing.T) {
	x := synthX(120, 20, 31)
	lab := make([]int, 20)
	for i := 10; i < 20; i++ {
		lab[i] = 1
	}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 150000, Seed: 23}
	w := newWorkerNode(t, nil)
	reg := metrics.New()
	_, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers:       []string{w.ts.URL},
		LeaseDuration: 30 * time.Millisecond,
		Metrics:       reg,
	})
	sameRes(t, "short lease", runOn(t, cm, x, lab, opt), standalone(t, x, lab, opt))
	if n := w.w.Info().Worker.LeaseExpired; n != 0 {
		t.Errorf("cluster_lease_expired_total = %d under a live coordinator, want 0", n)
	}
	if n := reg.Counter("cluster_shard_retries_total", "reason", "partial").Value(); n != 0 {
		t.Errorf("partial retries = %d, want 0", n)
	}
}

// TestClusterCoordinatorRestartReplaysLedger is the in-process tentpole
// check: a coordinator manager killed mid-distributed-job is rebuilt
// over the same journal, replays the merge ledger, re-dispatches ONLY
// the undelivered windows, collects parked worker results, and finishes
// with a byte-for-byte identical answer — journaled deliveries are
// never recomputed.
func TestClusterCoordinatorRestartReplaysLedger(t *testing.T) {
	x := synthX(120, 20, 11)
	lab := make([]int, 20)
	for i := 10; i < 20; i++ {
		lab[i] = 1
	}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 150000, Seed: 13}
	want := standalone(t, x, lab, opt)

	// One worker: every re-dispatch re-probes the node holding the parked
	// results, so the retention path is exercised deterministically.
	w1 := newWorkerNode(t, nil)
	if _, _, err := w1.srv.Manager().PutDataset(x); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jd := filepath.Join(dir, "journal")
	dd := filepath.Join(dir, "datasets")
	mkcfg := func(reg *metrics.Registry) cluster.CoordinatorConfig {
		return cluster.CoordinatorConfig{
			Workers:         []string{w1.ts.URL},
			ShardsPerWorker: 6,
			StragglerAfter:  time.Hour, // any retry below must mean real recomputation
			Metrics:         reg,
		}
	}
	coord1 := cluster.NewCoordinator(mkcfg(metrics.New()))
	m1, err := jobs.NewManager(jobs.Config{Workers: 1, Distributor: coord1, JournalDir: jd, DatasetDir: dd})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m1.Close) // idempotent; normally closed mid-test below

	dsInfo, _, err := m1.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(jobs.Spec{DatasetID: dsInfo.ID, Labels: lab, Opt: opt, NProcs: 1, Every: 50})
	if err != nil {
		t.Fatal(err)
	}

	// Kill once the ledger holds the plan plus at least one delivery AND
	// a worker is mid-shard (so the restart exercises both the replayed
	// merge and the parked/in-flight collection paths).
	deadline := time.Now().Add(30 * time.Second)
	armed := false
	for time.Now().Before(deadline) {
		ci := coord1.Info().Coordinator
		active := w1.w.Info().Worker.ShardsActive
		if ci.LedgerRecords >= 2 && active > 0 {
			armed = true
			break
		}
		if got, err := m1.Get(st.ID); err == nil && got.State.Terminal() {
			t.Skip("job finished before the kill window opened")
		}
		runtime.Gosched()
	}
	if !armed {
		t.Fatal("ledger never reached plan+delivery with a shard in flight")
	}
	m1.Close() // the crash: running job aborted, its cancellation NOT journaled

	reg2 := metrics.New()
	coord2 := cluster.NewCoordinator(mkcfg(reg2))
	m2, err := jobs.NewManager(jobs.Config{Workers: 1, Distributor: coord2, JournalDir: jd, DatasetDir: dd})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Close)

	// Same id, new life: recovery re-admits in the background, so Get
	// may briefly miss while replay runs.
	deadline = time.Now().Add(60 * time.Second)
	var fin jobs.Status
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished after restart", st.ID)
		}
		got, err := m2.Get(st.ID)
		if err == nil && got.State.Terminal() {
			fin = got
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fin.State != jobs.Done {
		t.Fatalf("replayed job %s: state %s: %s", st.ID, fin.State, fin.Error)
	}
	res, _, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameRes(t, "coordinator-restart", res, want)

	ci := coord2.Info().Coordinator
	if ci.LedgerJobsReplayed != 1 {
		t.Errorf("ledger_jobs_replayed = %d, want 1", ci.LedgerJobsReplayed)
	}
	if ci.LedgerWindowsReplayed < 1 {
		t.Errorf("ledger_windows_replayed = %d, want >= 1 (journaled deliveries merged without dispatch)", ci.LedgerWindowsReplayed)
	}
	if ci.JobsDistributed != 1 || ci.JobsDeclined != 0 {
		t.Errorf("distributed=%d declined=%d, want 1/0", ci.JobsDistributed, ci.JobsDeclined)
	}
	// Zero recomputation of delivered shards: with stragglers disabled, a
	// retry would mean a delivered window went back to a worker.
	if ci.ShardRetries != 0 {
		t.Errorf("shard_retries = %d after restart, want 0 (no delivered window recomputed)", ci.ShardRetries)
	}
	if ci.LedgerInvalid != 0 {
		t.Errorf("ledger_invalid = %d, want 0", ci.LedgerInvalid)
	}
	wi := w1.w.Info().Worker
	if wi.RetainedHits+wi.RetainedResumes+wi.InflightJoins < 1 {
		t.Errorf("no retained hit, resume or in-flight join on the worker after restart (hits=%d resumes=%d joins=%d)",
			wi.RetainedHits, wi.RetainedResumes, wi.InflightJoins)
	}
}

// TestClusterJoinMidJobOfferedImmediately pins the rejoin fast path: a
// worker that registers while a distributed job still has queued
// windows is put to work by the join heartbeat itself, not left idle
// until some later retry tick.
func TestClusterJoinMidJobOfferedImmediately(t *testing.T) {
	x := synthX(120, 20, 71)
	lab := make([]int, 20)
	for i := 10; i < 20; i++ {
		lab[i] = 1
	}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 100000, Seed: 23}
	want := standalone(t, x, lab, opt)

	// One deliberately slow static worker so the job outlives the join.
	slow := leaseWorkerNode(t)
	late := newWorkerNode(t, nil)
	for _, n := range []*workerNode{slow, late} {
		if _, _, err := n.srv.Manager().PutDataset(x); err != nil {
			t.Fatal(err)
		}
	}
	coord, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers:         []string{slow.ts.URL},
		ShardsPerWorker: 8,
	})
	// The coordinator's control API, as the daemon would mount it.
	mux := http.NewServeMux()
	for _, rt := range coord.Routes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.Handler)
	}
	cts := httptest.NewServer(mux)
	t.Cleanup(cts.Close)

	done := make(chan *core.Result, 1)
	go func() { done <- runOn(t, cm, x, lab, opt) }()

	deadline := time.Now().Add(30 * time.Second)
	for coord.Info().Coordinator.ShardsDispatched == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never dispatched a shard")
		}
		runtime.Gosched()
	}
	hb := []byte(fmt.Sprintf(`{"addr":%q}`, late.ts.URL))
	hr, err := http.Post(cts.URL+cluster.WorkersPath, "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK && hr.StatusCode != http.StatusNoContent {
		t.Fatalf("join: status %d", hr.StatusCode)
	}

	got := <-done
	sameRes(t, "join-mid-job", got, want)
	if n := late.w.Info().Worker.ShardsServed; n < 1 {
		t.Errorf("late-joining worker served %d shards; the join heartbeat should have offered queued windows", n)
	}
}

// TestClusterLedgerChaosSweep runs journaled distributed jobs under a
// deterministic fault storm — dropped and corrupted shard RPCs, failing
// lease heartbeats, failing journal appends — across several seeds.
// Whatever the storm does, the answer must stay bitwise identical to a
// clean standalone run; durability degrades before correctness does.
func TestClusterLedgerChaosSweep(t *testing.T) {
	x := synthX(25, 12, 61)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 2000, Seed: 29}
	want := standalone(t, x, lab, opt)

	for _, seed := range []int{7, 19, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w1 := newWorkerNode(t, nil)
			w2 := newWorkerNode(t, nil)
			for _, n := range []*workerNode{w1, w2} {
				if _, _, err := n.srv.Manager().PutDataset(x); err != nil {
					t.Fatal(err)
				}
			}
			inj, err := faultinject.Parse(fmt.Sprintf(
				"seed=%d;rpc.shard:error:p=0.15;rpc.shard.resp:corrupt:p=0.05;rpc.lease:error:p=0.5;journal.append:error:n=2", seed))
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Install(inj)
			defer faultinject.Disable()

			dir := t.TempDir()
			coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
				Workers:         []string{w1.ts.URL, w2.ts.URL},
				ShardsPerWorker: 4,
				DownFor:         50 * time.Millisecond,
				LeaseDuration:   time.Second,
				Client:          &http.Client{Transport: &faultinject.Transport{}},
				Metrics:         metrics.New(),
			})
			m, err := jobs.NewManager(jobs.Config{
				Workers: 1, Distributor: coord,
				JournalDir: filepath.Join(dir, "journal"),
				DatasetDir: filepath.Join(dir, "datasets"),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)

			got := runOn(t, m, x, lab, opt)
			sameRes(t, fmt.Sprintf("chaos seed=%d", seed), got, want)
			t.Logf("seed=%d: injector fired %v; coordinator %+v", seed, inj.Stats(), coord.Info().Coordinator)
		})
	}
}
