package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
)

// seqClusterCase builds a sequential submission whose merged counts are
// guaranteed to satisfy the whole-job stopping rule well before the
// planned B: 120 null rows at B=100000, where the empirical-Bernstein
// radius drops under the default 0.02 tolerance by ~25k merged
// permutations even for worst-case p̂ = 0.5.  20 samples (10v10) keeps
// C(20,10) = 184756 above B, so the plan stays a sampled run.
func seqClusterCase() (matrix.Matrix, []int, core.Options) {
	x := synthX(120, 20, 17)
	lab := make([]int, 20)
	for i := 10; i < 20; i++ {
		lab[i] = 1
	}
	opt := core.Options{
		Test: "t", Side: "abs", FixedSeedSampling: "y",
		B: 100000, Seed: 23,
		Mode: core.ModeSequential,
	}
	return x, lab, opt
}

// TestClusterSequentialEarlyStop drives a sequential job through a
// coordinator and two workers: shards run exact, the coordinator applies
// the stopping rule to its merge ledger, and the job finishes with fewer
// merged permutations than planned while every p-value stays within the
// tolerance of a full-length exact run.
func TestClusterSequentialEarlyStop(t *testing.T) {
	x, lab, opt := seqClusterCase()
	w1 := newWorkerNode(t, nil)
	w2 := newWorkerNode(t, nil)
	for _, w := range []*workerNode{w1, w2} {
		if _, _, err := w.srv.Manager().PutDataset(x); err != nil {
			t.Fatal(err)
		}
	}
	coord, cm := coordManager(t, cluster.CoordinatorConfig{Workers: []string{w1.ts.URL, w2.ts.URL}})

	got := runOn(t, cm, x, lab, opt)
	if !got.Sequential() || got.PlannedB != opt.B {
		t.Fatalf("cluster result not sequential: mode=%q plannedB=%d", got.Mode, got.PlannedB)
	}
	if got.B >= opt.B {
		t.Fatalf("merged %d of %d planned permutations — the stopping rule never fired", got.B, opt.B)
	}
	if got.SeqPermsSaved() <= 0 {
		t.Fatalf("SeqPermsSaved = %d on an early-stopped job", got.SeqPermsSaved())
	}
	// The coordinator finalizes every row at the uniform merged count.
	for i, be := range got.BEff {
		if math.IsNaN(got.Stat[i]) {
			if be != 0 {
				t.Fatalf("BEff[%d] = %d for an invalid row", i, be)
			}
			continue
		}
		if be != got.B {
			t.Fatalf("BEff[%d] = %d, want uniform merged count %d", i, be, got.B)
		}
	}
	info := coord.Info().Coordinator
	if info.SeqEarlyStops != 1 {
		t.Errorf("coordinator SeqEarlyStops = %d, want 1", info.SeqEarlyStops)
	}
	if info.JobsDistributed != 1 {
		t.Errorf("jobs distributed = %d, want 1", info.JobsDistributed)
	}

	// Accuracy contract: within the confidence-sequence tolerance of an
	// exact full-length run, with the order and statistics identical.
	exactOpt := opt
	exactOpt.Mode = core.ModeExact
	want := standalone(t, x, lab, exactOpt)
	const bound = 2 * 0.02
	for i := range want.RawP {
		if math.IsNaN(want.RawP[i]) {
			continue
		}
		if d := math.Abs(want.RawP[i] - got.RawP[i]); d > bound {
			t.Fatalf("RawP[%d]: cluster sequential %v vs exact %v (Δ=%v > %v)",
				i, got.RawP[i], want.RawP[i], d, bound)
		}
		if d := math.Abs(want.AdjP[i] - got.AdjP[i]); d > bound {
			t.Fatalf("AdjP[%d]: cluster sequential %v vs exact %v (Δ=%v > %v)",
				i, got.AdjP[i], want.AdjP[i], d, bound)
		}
		if math.Float64bits(want.Stat[i]) != math.Float64bits(got.Stat[i]) {
			t.Fatalf("Stat[%d] differs between modes", i)
		}
	}
	for i := range want.Order {
		if want.Order[i] != got.Order[i] {
			t.Fatalf("significance order diverged at %d", i)
		}
	}
}

// TestClusterSequentialWorkerKill slams one worker's connection on every
// shard RPC during a sequential job: the survivor and the local fallback
// absorb its spans, and the job still completes with valid sequential
// metadata (and, when the observed span lands before the last merge, an
// early stop).
func TestClusterSequentialWorkerKill(t *testing.T) {
	x, lab, opt := seqClusterCase()
	kill := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == "POST" && r.URL.Path == cluster.ShardPath {
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close()
					}
				}
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	dead := newWorkerNode(t, kill)
	live := newWorkerNode(t, nil)
	for _, w := range []*workerNode{dead, live} {
		if _, _, err := w.srv.Manager().PutDataset(x); err != nil {
			t.Fatal(err)
		}
	}
	coord, cm := coordManager(t, cluster.CoordinatorConfig{
		Workers: []string{dead.ts.URL, live.ts.URL},
	})

	got := runOn(t, cm, x, lab, opt)
	if !got.Sequential() || got.PlannedB != opt.B || got.B > opt.B {
		t.Fatalf("result metadata: mode=%q B=%d plannedB=%d", got.Mode, got.B, got.PlannedB)
	}
	info := coord.Info().Coordinator
	if info.ShardRetries < 1 {
		t.Errorf("shard retries = %d, want >= 1 after a killed worker", info.ShardRetries)
	}
	if got.B == opt.B {
		// Requeue shuffling can land the observed span last, in which
		// case the rule has no merge left to stop; identity still holds.
		t.Log("observed span merged last: job ran to the full plan")
	} else if info.SeqEarlyStops != 1 {
		t.Errorf("early-stopped job but SeqEarlyStops = %d", info.SeqEarlyStops)
	}
	exactOpt := opt
	exactOpt.Mode = core.ModeExact
	want := standalone(t, x, lab, exactOpt)
	const bound = 2 * 0.02
	for i := range want.RawP {
		if math.IsNaN(want.RawP[i]) {
			continue
		}
		if math.Abs(want.RawP[i]-got.RawP[i]) > bound || math.Abs(want.AdjP[i]-got.AdjP[i]) > bound {
			t.Fatalf("row %d drifted beyond tolerance after failover: raw %v vs %v, adj %v vs %v",
				i, got.RawP[i], want.RawP[i], got.AdjP[i], want.AdjP[i])
		}
	}
}

// TestClusterSequentialResumeWithFrozenRowsDistributes pins the handoff
// contract: a checkpoint that already froze rows under local per-row
// stopping now distributes — the coordinator pins the frozen rows
// (counts and effective B stay at the checkpoint values, masked out of
// every merge) while the active rows keep accumulating across workers.
// Before this, any frozen row forced the whole resume back onto the
// local path.
func TestClusterSequentialResumeWithFrozenRowsDistributes(t *testing.T) {
	x, lab, opt := seqClusterCase()
	// Boost a few rows far from null so they freeze early in the local
	// prefix run (a near-zero p-value settles within a couple of
	// windows), giving the checkpoint genuinely frozen rows.
	for r := 0; r < 5; r++ {
		for j := 10; j < 20; j++ {
			x.Data[r*x.Cols+j] += 4
		}
	}
	canon, err := core.CanonicalOptions(opt)
	if err != nil {
		t.Fatal(err)
	}

	// Run the local sequential engine until per-row stopping has frozen
	// rows, then cancel: the captured checkpoint is the exact state a
	// crashed or migrated local job would hand the cluster.
	ctx, cancel := context.WithCancel(context.Background())
	var last *core.Checkpoint
	_, err = core.RunMatrix(x, lab, canon, core.RunControl{
		Ctx: ctx, NProcs: 1, Every: 2048,
		Save: func(c *core.Checkpoint) error {
			for _, b := range c.BEff {
				if b != 0 {
					last = c
					cancel()
					break
				}
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) || last == nil {
		t.Fatalf("prefix run: err=%v, frozen checkpoint captured=%v", err, last != nil)
	}
	if last.Next >= int64(opt.B) {
		t.Fatalf("checkpoint already complete: next=%d of %d", last.Next, opt.B)
	}
	frozenRows := 0
	for _, b := range last.BEff {
		if b != 0 {
			frozenRows++
		}
	}

	w1 := newWorkerNode(t, nil)
	w2 := newWorkerNode(t, nil)
	for _, w := range []*workerNode{w1, w2} {
		if _, _, err := w.srv.Manager().PutDataset(x); err != nil {
			t.Fatal(err)
		}
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{Workers: []string{w1.ts.URL, w2.ts.URL}})
	p, err := core.Prepare(x, lab, canon)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.RunJob(context.Background(), jobs.DistRequest{
		Key: "k", DatasetID: jobs.DatasetDigest(x), Matrix: x,
		Labels: lab, Opt: canon, Prepared: p,
		Resume: last, NProcs: 1, Every: 50,
	})
	if err != nil {
		t.Fatalf("frozen-row resume declined or failed: %v", err)
	}
	info := coord.Info().Coordinator
	if info.JobsDistributed != 1 || info.JobsDeclined != 0 {
		t.Errorf("distributed=%d declined=%d, want 1/0", info.JobsDistributed, info.JobsDeclined)
	}

	// Frozen rows stay pinned at the checkpoint's effective counts; the
	// active rows finalize at the uniform merged count.
	if !got.Sequential() || got.B <= last.Done {
		t.Fatalf("result: mode=%q B=%d (checkpoint done=%d)", got.Mode, got.B, last.Done)
	}
	pinned := 0
	for i, be := range last.BEff {
		if be != 0 {
			if got.BEff[i] != be {
				t.Fatalf("BEff[%d] = %d, want pinned checkpoint value %d", i, got.BEff[i], be)
			}
			pinned++
		} else if !math.IsNaN(got.Stat[i]) && got.BEff[i] != got.B {
			t.Fatalf("BEff[%d] = %d on an active row, want uniform %d", i, got.BEff[i], got.B)
		}
	}
	if pinned != frozenRows || pinned == 0 {
		t.Fatalf("pinned %d rows, checkpoint froze %d", pinned, frozenRows)
	}

	// A checkpoint the resume rule rejects is ignored, not fatal: the job
	// computes from scratch, so no row is pinned.
	for _, bad := range []func(c *core.Checkpoint){
		func(c *core.Checkpoint) { c.BEff = c.BEff[1:] },
		func(c *core.Checkpoint) { c.Done-- },
	} {
		ck := *last
		bad(&ck)
		fresh, err := coord.RunJob(context.Background(), jobs.DistRequest{
			Key: "k", DatasetID: jobs.DatasetDigest(x), Matrix: x,
			Labels: lab, Opt: canon, Prepared: p,
			Resume: &ck, NProcs: 1, Every: 50,
		})
		if err != nil {
			t.Fatalf("rejected checkpoint failed the job: %v", err)
		}
		for i, be := range fresh.BEff {
			if !math.IsNaN(fresh.Stat[i]) && be != fresh.B {
				t.Fatalf("rejected checkpoint pinned row %d at %d of %d", i, be, fresh.B)
			}
		}
	}

	// Accuracy: within the confidence-sequence tolerance of an exact
	// full-length run, statistics and order identical.
	exactOpt := opt
	exactOpt.Mode = core.ModeExact
	want := standalone(t, x, lab, exactOpt)
	const bound = 2 * 0.02
	for i := range want.RawP {
		if math.IsNaN(want.RawP[i]) {
			continue
		}
		if d := math.Abs(want.RawP[i] - got.RawP[i]); d > bound {
			t.Fatalf("RawP[%d]: frozen resume %v vs exact %v (Δ=%v > %v)",
				i, got.RawP[i], want.RawP[i], d, bound)
		}
		if math.Float64bits(want.Stat[i]) != math.Float64bits(got.Stat[i]) {
			t.Fatalf("Stat[%d] differs from exact", i)
		}
	}
}

// TestWorkerRefusesSequentialShard pins the worker-side guard: a shard
// request that still carries sequential mode (a buggy or stale
// coordinator) is a loud 400, not a confusing engine error.
func TestWorkerRefusesSequentialShard(t *testing.T) {
	w := newWorkerNode(t, nil)
	_, lab, opt := seqClusterCase()
	body, err := json.Marshal(cluster.ShardRequest{
		JobKey: "k", DatasetID: "missing", Labels: lab, Options: opt,
		Lo: 0, Hi: 1000, TotalB: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(w.ts.URL+cluster.ShardPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sequential shard request answered %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error == "" {
		t.Fatal("400 without an error message")
	}
}

// TestClusterSequentialStopStopsWorkerCompute: a sequential job's early
// stop on the merge tears down the shard RPCs still in flight, and with
// them the worker computes.  The job has two windows, one per worker,
// and the one that does not start at the observed labelling is held
// until the observed one has been answered: it starts computing as the
// merge of the observed window stops the job, and stops at its next
// window boundary instead of running to its end.
func TestClusterSequentialStopStopsWorkerCompute(t *testing.T) {
	x := synthX(120, 30, 17)
	lab := make([]int, 30)
	for i := 15; i < 30; i++ {
		lab[i] = 1
	}
	opt := core.Options{
		Test: "t", Side: "abs", FixedSeedSampling: "y",
		B: 600000, Seed: 23,
		Mode: core.ModeSequential,
	}
	observed := make(chan struct{})
	var once sync.Once
	holdLater := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req cluster.ShardRequest
			shard := r.URL.Path == cluster.ShardPath && json.Unmarshal(body, &req) == nil
			if shard && req.Lo > 0 {
				select {
				case <-observed:
				case <-r.Context().Done():
				}
			}
			h.ServeHTTP(rw, r)
			if shard && req.Lo == 0 {
				once.Do(func() { close(observed) })
			}
		})
	}
	w1 := newWorkerNode(t, holdLater)
	w2 := newWorkerNode(t, holdLater)
	for _, w := range []*workerNode{w1, w2} {
		if _, _, err := w.srv.Manager().PutDataset(x); err != nil {
			t.Fatal(err)
		}
	}
	coord, cm := coordManager(t, cluster.CoordinatorConfig{Workers: []string{w1.ts.URL, w2.ts.URL}, ShardsPerWorker: 1})
	got := runOn(t, cm, x, lab, opt)
	if got.B >= opt.B || coord.Info().Coordinator.SeqEarlyStops != 1 {
		t.Fatalf("merged %d of %d planned permutations, early stops %d: the stopping rule never fired",
			got.B, opt.B, coord.Info().Coordinator.SeqEarlyStops)
	}
	eventually(t, "the workers' computes to stop", func() bool {
		return w1.w.Info().Worker.ShardsActive+w2.w.Info().Worker.ShardsActive == 0
	})
	if served := w1.w.Info().Worker.ShardsServed + w2.w.Info().Worker.ShardsServed; served != 1 {
		t.Fatalf("%d windows ran to their end, want only the observed one", served)
	}
}
