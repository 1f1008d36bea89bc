package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/faultinject"
	"sprint/internal/httpapi"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/metrics"
)

// tinyWindowWorker is a worker with tiny compute windows: fine-grained
// cancellation boundaries.
func tinyWindowWorker(t *testing.T) *workerNode {
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

// shardAnswer is one shard RPC's outcome: the status with the decoded
// record or the refusal reason, or the error that ended the call (a
// cancelled requester's context).
type shardAnswer struct {
	code   int
	rec    *core.Checkpoint
	reason string
	err    error
}

// callShard sends one raw shard RPC under ctx and decodes whatever
// comes back.
func callShard(ctx context.Context, url string, req *cluster.ShardRequest) (a shardAnswer) {
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequestWithContext(ctx, "POST", url+cluster.ShardPath, bytes.NewReader(body))
	hr, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return shardAnswer{err: err}
	}
	defer hr.Body.Close()
	a.code = hr.StatusCode
	if hr.StatusCode != http.StatusOK {
		var eb struct{ Reason string }
		_ = json.NewDecoder(hr.Body).Decode(&eb)
		a.reason = eb.Reason
		return a
	}
	rec, err := io.ReadAll(hr.Body)
	if err == nil {
		a.rec, err = core.DecodeRecord(rec)
	}
	a.err = err
	return a
}

// postShard sends one raw shard RPC and decodes whatever comes back.
func postShard(t *testing.T, url string, req *cluster.ShardRequest) (int, *core.Checkpoint, string) {
	t.Helper()
	a := callShard(context.Background(), url, req)
	if a.err != nil {
		t.Fatal(a.err)
	}
	return a.code, a.rec, a.reason
}

// requestShard sends one shard RPC under ctx in the background.
func requestShard(ctx context.Context, url string, req *cluster.ShardRequest) <-chan shardAnswer {
	out := make(chan shardAnswer, 1)
	go func() { out <- callShard(ctx, url, req) }()
	return out
}

// eventually polls cond until it holds, failing the test after 30 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// shardFixture puts a rows × cols dataset on a worker with tiny compute
// windows and returns the request for the whole window of a
// balanced two-class t analysis with b permutations.
func shardFixture(t *testing.T, rows, cols int, b int64, seed uint64) (*workerNode, matrix.Matrix, *cluster.ShardRequest) {
	t.Helper()
	x := synthX(rows, cols, seed)
	lab := make([]int, cols)
	for i := cols / 2; i < cols; i++ {
		lab[i] = 1
	}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: b, Seed: 17}
	n := tinyWindowWorker(t)
	info, _, err := n.srv.Manager().PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	fp, totalB := shardFingerprint(t, n, info.ID, lab, opt)
	return n, x, &cluster.ShardRequest{JobKey: "fixture", DatasetID: info.ID, Labels: lab, Options: opt,
		Lo: 0, Hi: totalB, TotalB: totalB, Fingerprint: fp, NProcs: 1}
}

// TestWorkerRequesterGoneParksAndResumes: a shard lives only as long as
// a request waits for it.  When its only requester disconnects
// mid-window, the compute stops at its next window boundary and parks
// its prefix in retention; a re-probe of the same window resumes from
// the parked prefix, and the final counts are bitwise identical to an
// uninterrupted compute.
func TestWorkerRequesterGoneParksAndResumes(t *testing.T) {
	// About a third of a second of kernel: the requester leaves mid-window.
	n, _, req := shardFixture(t, 120, 30, 300000, 51)
	ctx, cancel := context.WithCancel(context.Background())
	answer := requestShard(ctx, n.ts.URL, req)
	eventually(t, "the shard to start computing", func() bool { return n.w.Info().Worker.ShardsActive > 0 })
	cancel()
	<-answer
	eventually(t, "the orphaned compute to stop", func() bool { return n.w.Info().Worker.ShardsActive == 0 })
	if wi := n.w.Info().Worker; wi.ShardsPartial != 1 || wi.ShardsServed != 0 || wi.ShardsRetained != 1 {
		t.Fatalf("orphaned compute: partial %d served %d retained %d, want a parked prefix (1, 0, 1)",
			wi.ShardsPartial, wi.ShardsServed, wi.ShardsRetained)
	}

	// The re-probe resumes from the parked prefix: only the remainder runs.
	code, full, reason := postShard(t, n.ts.URL, req)
	if code != http.StatusOK || full.Next != full.Hi || full.Done != req.TotalB {
		t.Fatalf("re-probe: status %d reason %q, want the complete window", code, reason)
	}
	if n := n.w.Info().Worker.RetainedResumes; n != 1 {
		t.Fatalf("retained_resumes = %d, want 1", n)
	}
	clean, _, _ := shardFixture(t, 120, 30, 300000, 51)
	if _, want, _ := postShard(t, clean.ts.URL, req); want == nil || !bytes.Equal(full.AppendRecord(nil), want.AppendRecord(nil)) {
		t.Fatal("resumed window's record differs from an uninterrupted compute")
	}
}

// TestWorkerLastRequesterCancels: a re-probe that joins a computing
// window keeps it alive.  The first requester leaving does not cancel
// the compute — the second still gets the whole window — and when every
// requester has left, the compute parks.
func TestWorkerLastRequesterCancels(t *testing.T) {
	n, _, req := shardFixture(t, 120, 30, 300000, 52)
	// twoRequesters starts two requests on req's window, the second
	// joining the first's compute, and cancels the first.
	twoRequesters := func(ctx2 context.Context, joins int64) <-chan shardAnswer {
		ctx1, cancel1 := context.WithCancel(context.Background())
		first := requestShard(ctx1, n.ts.URL, req)
		eventually(t, "the shard to start computing", func() bool { return n.w.Info().Worker.ShardsActive > 0 })
		second := requestShard(ctx2, n.ts.URL, req)
		eventually(t, "the re-probe to join", func() bool { return n.w.Info().Worker.InflightJoins == joins })
		cancel1()
		<-first
		return second
	}
	if a := <-twoRequesters(context.Background(), 1); a.err != nil || a.rec == nil || a.rec.Next != a.rec.Hi {
		t.Fatalf("remaining requester: status %d err %v, want the complete window", a.code, a.err)
	}
	if wi := n.w.Info().Worker; wi.ShardsServed != 1 || wi.ShardsPartial != 0 {
		t.Fatalf("served %d partial %d, want one complete compute", wi.ShardsServed, wi.ShardsPartial)
	}

	// Another window; both requesters leave.
	req.Hi--
	ctx2, cancel2 := context.WithCancel(context.Background())
	second := twoRequesters(ctx2, 2)
	cancel2()
	<-second
	eventually(t, "the abandoned compute to stop", func() bool { return n.w.Info().Worker.ShardsActive == 0 })
	if wi := n.w.Info().Worker; wi.ShardsPartial != 1 || wi.ShardsServed != 1 {
		t.Fatalf("served %d partial %d after every requester left, want the second window parked (1, 1)",
			wi.ShardsServed, wi.ShardsPartial)
	}
}

// TestWorkerShardContract: a shard request must name its plan
// (fingerprint, total_b).  One that lacks either answers 400, like an
// undecodable body, and computes nothing.
func TestWorkerShardContract(t *testing.T) {
	n, _, fixture := shardFixture(t, 30, 12, 400, 53)
	for _, tc := range []struct {
		name   string
		mutate func(*cluster.ShardRequest)
	}{
		{"fingerprint 0", func(r *cluster.ShardRequest) { r.Fingerprint = 0 }},
		{"total_b 0", func(r *cluster.ShardRequest) { r.TotalB = 0 }},
	} {
		req := *fixture
		tc.mutate(&req)
		if code, _, _ := postShard(t, n.ts.URL, &req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if wi := n.w.Info().Worker; wi.ShardsServed != 0 || wi.ShardsPartial != 0 || wi.ShardsRefused != 0 {
		t.Fatalf("contract violations reached the compute path: served %d partial %d refused %d",
			wi.ShardsServed, wi.ShardsPartial, wi.ShardsRefused)
	}
}

// TestClusterLeaseFieldVersionSkew: lease_ms is a wire field of the
// previous release only.  This release's worker serves a request with
// it and one without it alike, and the coordinator still sends it — one
// constant on every request — so a previous-release worker, which
// answers 400 without it, serves a job through it bitwise identical to
// a standalone run.
func TestClusterLeaseFieldVersionSkew(t *testing.T) {
	n, x, req := shardFixture(t, 30, 12, 400, 54)
	var recs [][]byte
	for _, leaseMS := range []int64{60000, 0} {
		req.LeaseMS = leaseMS
		code, rec, reason := postShard(t, n.ts.URL, req)
		if code != http.StatusOK || rec.Next != rec.Hi {
			t.Fatalf("lease_ms %d: status %d reason %q, want the complete window", leaseMS, code, reason)
		}
		recs = append(recs, rec.AppendRecord(nil))
	}
	if !bytes.Equal(recs[0], recs[1]) {
		t.Fatal("the window's record depends on lease_ms")
	}

	// A worker that holds the previous release's contract answers 400
	// to a request without lease_ms; this one also refuses any lease_ms
	// but the constant.
	old := newWorkerNode(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			var req cluster.ShardRequest
			if r.URL.Path == cluster.ShardPath && (json.Unmarshal(body, &req) != nil || req.LeaseMS != cluster.LegacyLeaseMS) {
				http.Error(rw, `{"error":"bad shard request: fingerprint, total_b and lease_ms are required"}`, http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(rw, r)
		})
	})
	reg := metrics.New()
	_, cm := coordManager(t, cluster.CoordinatorConfig{Workers: []string{old.ts.URL}, Metrics: reg})
	sameRes(t, "previous-release worker", runOn(t, cm, x, req.Labels, req.Options), standalone(t, x, req.Labels, req.Options))
	if n := reg.Counter("cluster_shard_retries_total", "reason", "error").Value(); n != 0 || old.w.Info().Worker.ShardsServed == 0 {
		t.Errorf("the previous-release worker refused %d shard requests and served %d", n, old.w.Info().Worker.ShardsServed)
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
	eventually(t, "the ledger to hold plan+delivery with a shard in flight", func() bool {
		if got, err := m1.Get(st.ID); err == nil && got.State.Terminal() {
			t.Skip("job finished before the kill window opened")
		}
		return coord1.Info().Coordinator.LedgerRecords >= 2 && w1.w.Info().Worker.ShardsActive > 0
	})
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
	var fin jobs.Status
	eventually(t, "the job to finish after the restart", func() bool {
		got, err := m2.Get(st.ID)
		fin = got
		return err == nil && got.State.Terminal()
	})
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
	slow := tinyWindowWorker(t)
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

	eventually(t, "the job to dispatch a shard", func() bool { return coord.Info().Coordinator.ShardsDispatched > 0 })
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
// journal appends — across several seeds.
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
				"seed=%d;rpc.shard:error:p=0.15;rpc.shard.resp:corrupt:p=0.05;journal.append:error:n=2", seed))
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
