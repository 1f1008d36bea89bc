package cluster_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
)

// synthX builds a deterministic genes×samples matrix (splitmix-style
// fill), the cluster-side analogue of the core test fixtures.
func synthX(rows, cols int, seed uint64) matrix.Matrix {
	m := matrix.New(rows, cols)
	s := seed
	for i := range m.Data {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		m.Data[i] = float64(int64(z>>11))/float64(1<<52) - 1
	}
	return m
}

// workerNode is one in-process worker daemon: manager + HTTP API +
// mounted cluster worker, exactly the -role worker wiring.
type workerNode struct {
	srv *httpapi.Server
	w   *cluster.Worker
	ts  *httptest.Server
}

func newWorkerNode(t *testing.T, wrap func(http.Handler) http.Handler) *workerNode {
	t.Helper()
	srv, err := httpapi.New(httpapi.Config{Jobs: jobs.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{Source: srv.Manager(), Every: 50, NProcs: 1})
	srv.AttachCluster(w)
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &workerNode{srv: srv, w: w, ts: ts}
}

// runOn submits the analysis by dataset id on the manager and waits for
// the result.
func runOn(t *testing.T, m *jobs.Manager, x matrix.Matrix, labels []int, opt core.Options) *core.Result {
	t.Helper()
	info, _, err := m.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	return runSpec(t, m, jobs.Spec{DatasetID: info.ID, Labels: labels, Opt: opt})
}

// runSpec submits spec with one rank and 50-permutation windows and
// waits for the result.
func runSpec(t *testing.T, m *jobs.Manager, spec jobs.Spec) *core.Result {
	t.Helper()
	spec.NProcs, spec.Every = 1, 50
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		got, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			if got.State != jobs.Done {
				t.Fatalf("job %s: state %s: %s", st.ID, got.State, got.Error)
			}
			res, _, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not finish", st.ID)
	return nil
}

// sameRes asserts bitwise identity of everything the engine reports per
// gene, the cluster's central contract.
func sameRes(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	if got.B != want.B || got.Complete != want.Complete {
		t.Fatalf("%s: B/Complete (%d,%v), want (%d,%v)", name, got.B, got.Complete, want.B, want.Complete)
	}
	fields := []struct {
		f    string
		g, w []float64
	}{{"Stat", got.Stat, want.Stat}, {"RawP", got.RawP, want.RawP}, {"AdjP", got.AdjP, want.AdjP}}
	for _, fl := range fields {
		if len(fl.g) != len(fl.w) {
			t.Fatalf("%s %s: length %d != %d", name, fl.f, len(fl.g), len(fl.w))
		}
		for i := range fl.g {
			if math.Float64bits(fl.g[i]) != math.Float64bits(fl.w[i]) {
				t.Fatalf("%s %s[%d]: %v != %v (bitwise)", name, fl.f, i, fl.g[i], fl.w[i])
			}
		}
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s Order[%d]: %d != %d", name, i, got.Order[i], want.Order[i])
		}
	}
}

// coordManager builds a coordinator over the worker addrs plus a jobs
// manager that distributes through it — the -role coordinator wiring.
func coordManager(t *testing.T, cfg cluster.CoordinatorConfig) (*cluster.Coordinator, *jobs.Manager) {
	t.Helper()
	coord := cluster.NewCoordinator(cfg)
	m, err := jobs.NewManager(jobs.Config{Workers: 1, Distributor: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return coord, m
}

// standalone runs the same spec on an undistributed manager.
func standalone(t *testing.T, x matrix.Matrix, labels []int, opt core.Options) *core.Result {
	t.Helper()
	m, err := jobs.NewManager(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return runOn(t, m, x, labels, opt)
}

// TestClusterBitwiseIdentitySweep is the tentpole acceptance check: a
// coordinator plus two workers produce results bitwise identical to a
// single standalone node for all six statistics, both generators, and
// both enumeration orders (combinadic, and revolving-door, which
// exercises the delta-evaluation paths).
func TestClusterBitwiseIdentitySweep(t *testing.T) {
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	flab := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	plab := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	blab := []int{0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2}
	clab := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2} // 2 970 labellings
	cases := []struct {
		name string
		lab  []int
		opt  core.Options
	}{
		{"welch/otf", lab, core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 300, Seed: 1}},
		{"welch/stored", lab, core.Options{Test: "t", Side: "upper", FixedSeedSampling: "n", B: 300, Seed: 2}},
		{"equalvar/stored", lab, core.Options{Test: "t.equalvar", Side: "abs", FixedSeedSampling: "n", B: 200, Seed: 4}},
		{"wilcoxon/complete/door", lab, core.Options{Test: "wilcoxon", Side: "abs", B: 0}},
		{"f/otf", flab, core.Options{Test: "f", Side: "abs", FixedSeedSampling: "y", B: 200, Seed: 6}},
		{"f/complete", clab, core.Options{Test: "f", Side: "abs", B: 0}},
		{"pairt/complete", plab, core.Options{Test: "pairt", Side: "abs", B: 0, Seed: 7}},
		{"blockf/otf", blab, core.Options{Test: "blockf", Side: "abs", FixedSeedSampling: "y", B: 150, Seed: 9}},
	}
	w1 := newWorkerNode(t, nil)
	w2 := newWorkerNode(t, nil)
	// One matrix per case, so no case can be answered from another's
	// cache entry instead of being distributed.  Preload every matrix on
	// both workers (content address: same bytes, same id).
	xs := make([]matrix.Matrix, len(cases))
	for i := range cases {
		xs[i] = synthX(30, 12, 2024+uint64(i))
		if _, _, err := w1.srv.Manager().PutDataset(xs[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w2.srv.Manager().PutDataset(xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	coord, cm := coordManager(t, cluster.CoordinatorConfig{Workers: []string{w1.ts.URL, w2.ts.URL}})

	for i, tc := range cases {
		want := standalone(t, xs[i], tc.lab, tc.opt)
		got := runOn(t, cm, xs[i], tc.lab, tc.opt)
		sameRes(t, tc.name, got, want)
	}
	info := coord.Info()
	if info.Coordinator.JobsDistributed != int64(len(cases)) {
		t.Errorf("jobs distributed = %d, want %d", info.Coordinator.JobsDistributed, len(cases))
	}
	if info.Coordinator.DatasetPushes != 0 {
		t.Errorf("dataset pushes = %d on preloaded workers", info.Coordinator.DatasetPushes)
	}
	served := w1.w.Info().Worker.ShardsServed + w2.w.Info().Worker.ShardsServed
	if served == 0 {
		t.Error("no shards served by workers")
	}
}

// TestClusterPushOn404 starts workers with empty registries: the first
// shard answers 404 unknown_dataset, the coordinator pushes the .spb
// once per worker, and the job still converges bit-identically — for a
// dataset-id submission and for an inline one, whose job-owned entry
// the coordinator pushes under the same digest without ever listing it.
func TestClusterPushOn404(t *testing.T) {
	x := synthX(25, 12, 7)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 3}
	want := standalone(t, x, lab, opt)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	for _, tc := range []struct {
		name         string
		inline       bool
		wantDatasets int
	}{
		{"dataset", false, 1},
		{"inline", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w1 := newWorkerNode(t, nil)
			w2 := newWorkerNode(t, nil)
			coord, cm := coordManager(t, cluster.CoordinatorConfig{Workers: []string{w1.ts.URL, w2.ts.URL}})

			var got *core.Result
			if tc.inline {
				got = runSpec(t, cm, jobs.Spec{X: rows, Labels: lab, Opt: opt})
			} else {
				got = runOn(t, cm, x, lab, opt)
			}
			sameRes(t, "push-on-404/"+tc.name, got, want)
			if p := coord.Info().Coordinator.DatasetPushes; p < 1 || p > 2 {
				t.Errorf("dataset pushes = %d, want 1..2 (once per worker that 404ed)", p)
			}
			if n := len(cm.Datasets()); n != tc.wantDatasets {
				t.Errorf("coordinator lists %d datasets, want %d", n, tc.wantDatasets)
			}
		})
	}
}

// TestClusterWorkerKillFailover kills one worker's transport for every
// shard RPC (connection slammed mid-request — the compute, if any, is
// lost); the survivor and the coordinator's local fallback absorb its
// windows and the result stays bitwise identical.
func TestClusterWorkerKillFailover(t *testing.T) {
	x := synthX(30, 12, 99)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "wilcoxon", Side: "abs", FixedSeedSampling: "y", B: 600, Seed: 5}

	kill := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == "POST" && r.URL.Path == cluster.ShardPath {
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Error("response writer cannot hijack")
					return
				}
				conn, _, err := hj.Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	dead := newWorkerNode(t, kill)
	live := newWorkerNode(t, nil)
	x2 := x // same matrix on both; the dead worker never gets to use it
	if _, _, err := dead.srv.Manager().PutDataset(x2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.srv.Manager().PutDataset(x2); err != nil {
		t.Fatal(err)
	}
	coord, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers: []string{dead.ts.URL, live.ts.URL},
	})

	want := standalone(t, x, lab, opt)
	got := runOn(t, cm, x, lab, opt)
	sameRes(t, "worker-kill", got, want)
	info := coord.Info().Coordinator
	if info.ShardRetries < 1 {
		t.Errorf("shard retries = %d, want >= 1 after a killed worker", info.ShardRetries)
	}
	if n := dead.w.Info().Worker.ShardsServed; n != 0 {
		t.Errorf("dead worker served %d shards", n)
	}
}

// TestClusterDrainPartialHandoff drains the only worker while its shard
// is computing: the worker ships the completed window prefix, the
// coordinator merges it and computes the remainder locally, and the
// result stays bitwise identical — no permutation lost or recounted.
func TestClusterDrainPartialHandoff(t *testing.T) {
	// 20 samples (10v10): C(20,10) = 184756 distinct labellings, so
	// B = 100000 stays a sampled run large enough to drain mid-shard.
	x := synthX(120, 20, 11)
	lab := make([]int, 20)
	for i := 10; i < 20; i++ {
		lab[i] = 1
	}
	opt := core.Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 100000, Seed: 13}

	srv, err := httpapi.New(httpapi.Config{Jobs: jobs.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny windows: the drain boundary is at most 5 permutations away.
	w := cluster.NewWorker(cluster.WorkerConfig{Source: srv.Manager(), Every: 5, NProcs: 1})
	srv.AttachCluster(w)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	if _, _, err := srv.Manager().PutDataset(x); err != nil {
		t.Fatal(err)
	}

	coord, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers:         []string{ts.URL},
		ShardsPerWorker: 1, // one long shard: the drain must hand off a prefix
	})

	want := standalone(t, x, lab, opt)

	done := make(chan *core.Result, 1)
	go func() { done <- runOn(t, cm, x, lab, opt) }()

	// Wait until the shard is computing, then drain.
	eventually(t, "the worker to start a shard", func() bool {
		select {
		case got := <-done:
			// The job outran the poll: identity still holds, but the
			// partial path was not exercised this run.
			sameRes(t, "drain (job finished first)", got, want)
			t.Skip("job finished before the drain fired")
		default:
		}
		return w.Info().Worker.ShardsActive > 0
	})
	w.Drain()
	got := <-done
	sameRes(t, "drain", got, want)

	wi := w.Info().Worker
	ci := coord.Info().Coordinator
	if !wi.Draining {
		t.Error("worker not draining after Drain")
	}
	if wi.ShardsPartial < 1 {
		t.Logf("note: shard completed before the drain boundary (partial=%d, served=%d)",
			wi.ShardsPartial, wi.ShardsServed)
	}
	if wi.ShardsPartial >= 1 && ci.LocalShards < 1 {
		t.Errorf("partial handed off but no local remainder computed (local=%d)", ci.LocalShards)
	}
}

// TestClusterDeclinesSmallJobs pins the MinDistB admission gate: tiny
// jobs fall back to the manager's local path (ErrNotDistributed) and
// still complete.
func TestClusterDeclinesSmallJobs(t *testing.T) {
	x := synthX(10, 12, 5)
	lab := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	opt := core.Options{Test: "t", B: 50, Seed: 2}
	w := newWorkerNode(t, nil)
	if _, _, err := w.srv.Manager().PutDataset(x); err != nil {
		t.Fatal(err)
	}
	coord, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers:  []string{w.ts.URL},
		MinDistB: 1000,
	})
	want := standalone(t, x, lab, opt)
	got := runOn(t, cm, x, lab, opt)
	sameRes(t, "declined", got, want)
	info := coord.Info().Coordinator
	if info.JobsDeclined != 1 || info.JobsDistributed != 0 {
		t.Errorf("declined=%d distributed=%d, want 1/0", info.JobsDeclined, info.JobsDistributed)
	}
}

// TestClusterFoldedJobJudgedInLabellings: a complete balanced job runs
// folded (462 complement pairs for C(12, 6) = 924 labellings), yet
// MinDistB judges its labelling count: the coordinator distributes it at
// a bound of 924 and declines it at 925, and both paths give the
// standalone bits.
func TestClusterFoldedJobJudgedInLabellings(t *testing.T) {
	lab := []int{0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0}
	opt := core.Options{Test: "wilcoxon", B: 0}
	w := newWorkerNode(t, nil)
	for i, tc := range []struct {
		minB        int64
		distributed bool
	}{{924, true}, {925, false}} {
		x := synthX(20, 12, 300+uint64(i))
		if _, _, err := w.srv.Manager().PutDataset(x); err != nil {
			t.Fatal(err)
		}
		served := w.w.Info().Worker.ShardsServed
		coord, cm := coordManager(t, cluster.CoordinatorConfig{Workers: []string{w.ts.URL}, MinDistB: tc.minB})
		want := standalone(t, x, lab, opt)
		got := runOn(t, cm, x, lab, opt)
		name := fmt.Sprintf("MinDistB=%d", tc.minB)
		sameRes(t, name, got, want)
		if got.B != 924 {
			t.Fatalf("%s: B = %d, want 924 labellings", name, got.B)
		}
		wantDist, wantDecl := int64(0), int64(1)
		if tc.distributed {
			wantDist, wantDecl = 1, 0
		}
		if info := coord.Info().Coordinator; info.JobsDistributed != wantDist || info.JobsDeclined != wantDecl {
			t.Fatalf("%s: distributed %d, declined %d; want %d, %d", name, info.JobsDistributed, info.JobsDeclined, wantDist, wantDecl)
		}
		if now := w.w.Info().Worker.ShardsServed; (now > served) != tc.distributed {
			t.Fatalf("%s: worker served %d shards (was %d); want distributed %v", name, now, served, tc.distributed)
		}
	}
}

// TestClusterCancelStopsWorkerCompute: cancelling a distributed job
// (Manager.Cancel, which DELETE /v1/jobs/{id} calls) tears down its
// shard RPC, and with it the worker's compute, which stops at its next
// window boundary instead of running its window to the end.
func TestClusterCancelStopsWorkerCompute(t *testing.T) {
	// One window of about three seconds of kernel.
	w, x, req := shardFixture(t, 120, 30, 3000000, 81)
	_, cm := coordManager(t, cluster.CoordinatorConfig{Workers: []string{w.ts.URL}, ShardsPerWorker: 1})
	info, _, err := cm.PutDataset(x)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cm.Submit(jobs.Spec{DatasetID: info.ID, Labels: req.Labels, Opt: req.Options, NProcs: 1, Every: 50})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the shard to start computing", func() bool { return w.w.Info().Worker.ShardsActive > 0 })
	if _, err := cm.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the worker's compute to stop", func() bool { return w.w.Info().Worker.ShardsActive == 0 })
	if wi := w.w.Info().Worker; wi.ShardsServed != 0 {
		t.Fatalf("the cancelled job's window ran to its end (served %d, partial %d)", wi.ShardsServed, wi.ShardsPartial)
	}
}
