package core

import (
	"context"
	"slices"
	"testing"

	"sprint/internal/maxt"
)

// shardCases is the distribution test matrix: all six statistics, both
// generators, sampled and complete enumeration in both orders (revolving
// door for two samples, combinadic otherwise) — every path a cluster shard
// can take.
func shardCases() []struct {
	name string
	lab  []int
	opt  Options
} {
	lab := twoClass(6, 6)
	flab := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	plab := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	blab := []int{0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2}
	clab := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2} // 2 970 labellings
	return []struct {
		name string
		lab  []int
		opt  Options
	}{
		{"welch/otf", lab, Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 200, Seed: 1}},
		{"welch/stored", lab, Options{Test: "t", Side: "upper", FixedSeedSampling: "n", B: 200, Seed: 2}},
		{"equalvar/stored", lab, Options{Test: "t.equalvar", Side: "abs", FixedSeedSampling: "n", B: 150, Seed: 4}},
		{"wilcoxon/otf", lab, Options{Test: "wilcoxon", Side: "abs", FixedSeedSampling: "y", B: 150, Seed: 5}},
		{"wilcoxon/complete/door", lab, Options{Test: "wilcoxon", Side: "abs", B: 0}},
		{"f/otf", flab, Options{Test: "f", Side: "abs", FixedSeedSampling: "y", B: 150, Seed: 6}},
		{"f/complete", clab, Options{Test: "f", Side: "abs", B: 0}},
		{"pairt/complete", plab, Options{Test: "pairt", Side: "abs", B: 0, Seed: 7}},
		{"blockf/otf", blab, Options{Test: "blockf", Side: "abs", FixedSeedSampling: "y", B: 100, Seed: 9}},
	}
}

// unevenSpans carves [0, total) into deliberately unequal windows —
// the shape of a heterogeneous cluster's partition.
func unevenSpans(total int64) [][2]int64 {
	cuts := []int64{0, total / 7, total / 3, total/3 + 1, 2 * total / 3, total}
	var spans [][2]int64
	for i := 0; i+1 < len(cuts); i++ {
		if cuts[i] < cuts[i+1] {
			spans = append(spans, [2]int64{cuts[i], cuts[i+1]})
		}
	}
	return spans
}

// TestShardMergeAssociativity is the cluster's correctness foundation:
// computing disjoint permutation windows with RunShard and merging the
// exceedance counts — in ANY arrival order — finalizes bitwise identical
// to the single-node run, for every statistic, generator and enumeration
// order.
func TestShardMergeAssociativity(t *testing.T) {
	x := synthMatrix(30, 12, 5, 2024)
	for _, tc := range shardCases() {
		p, err := Prepare(mat(x), tc.lab, tc.opt)
		if err != nil {
			t.Fatalf("%s: prepare: %v", tc.name, err)
		}
		want, err := RunPrepared(p, tc.opt, RunControl{NProcs: 2, Every: 64})
		if err != nil {
			t.Fatalf("%s: full run: %v", tc.name, err)
		}
		plan, err := PlanRun(p, tc.opt)
		if err != nil {
			t.Fatalf("%s: plan: %v", tc.name, err)
		}
		if plan.Labellings(plan.TotalB) != want.B {
			t.Fatalf("%s: plan B %d×%d, result B %d", tc.name, plan.TotalB, plan.Orbit, want.B)
		}
		spans := unevenSpans(plan.TotalB)
		parts := make([]*ShardCounts, len(spans))
		for i, sp := range spans {
			sc, err := RunShard(p, tc.opt, sp[0], sp[1], RunControl{NProcs: 1, Every: 33})
			if err != nil {
				t.Fatalf("%s shard %v: %v", tc.name, sp, err)
			}
			if sc.Lo != sp[0] || sc.Next != sp[1] {
				t.Fatalf("%s shard %v: covered [%d,%d)", tc.name, sp, sc.Lo, sc.Next)
			}
			if sc.Plan.Fingerprint != plan.Fingerprint {
				t.Fatalf("%s shard %v: fingerprint drift", tc.name, sp)
			}
			parts[i] = sc
		}
		// Merge under several arrival orders: index order, reversed, and
		// a shuffle — associativity means all finalize identically.
		if len(parts) != 5 {
			t.Fatalf("%s: %d spans, want 5", tc.name, len(parts))
		}
		orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 4, 0, 3, 1}}
		for _, order := range orders {
			merged := maxt.NewCounts(plan.Rows)
			for _, i := range order {
				merged.Merge(parts[i].Counts)
			}
			got, err := FinalizeCounts(p, tc.opt, merged, nil)
			if err != nil {
				t.Fatalf("%s: finalize: %v", tc.name, err)
			}
			sameResultBits(t, tc.name, got, want)
		}
	}
}

// TestRunShardResumeAndCancel pins the shard checkpoint contract: a
// cancelled shard hands back its prefix counts plus a checkpoint whose
// (Next, Done) place it inside the shard window, and resuming from that
// checkpoint completes the window with no permutation recounted.
func TestRunShardResumeAndCancel(t *testing.T) {
	x := synthMatrix(20, 12, 3, 77)
	lab := twoClass(6, 6)
	opt := Options{Test: "t", Side: "abs", FixedSeedSampling: "y", B: 400, Seed: 11}
	p, err := Prepare(mat(x), lab, opt)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 100, 300

	whole, err := RunShard(p, opt, lo, hi, RunControl{NProcs: 1, Every: 50})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the first window; keep the last checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	var ckpt *Checkpoint
	part, err := RunShard(p, opt, lo, hi, RunControl{
		Ctx: ctx, NProcs: 1, Every: 50,
		Save: func(c *Checkpoint) error { ckpt = c; cancel(); return nil },
	})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if part == nil || part.Next <= lo || part.Next >= hi {
		t.Fatalf("partial shard should stop inside the window, got %+v", part)
	}
	if ckpt == nil || ckpt.Next != part.Next || ckpt.Next-ckpt.Done != lo {
		t.Fatalf("checkpoint (Next=%d Done=%d) does not mark shard [%d,%d) prefix",
			ckpt.Next, ckpt.Done, lo, hi)
	}

	rest, err := RunShard(p, opt, lo, hi, RunControl{NProcs: 1, Every: 50, Resume: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if rest.Next != hi || rest.Counts.B != hi-lo {
		t.Fatalf("resumed shard covered B=%d next=%d, want B=%d next=%d",
			rest.Counts.B, rest.Next, hi-lo, hi)
	}
	if rest.Counts.B != whole.Counts.B {
		t.Fatalf("resumed B %d != whole B %d", rest.Counts.B, whole.Counts.B)
	}
	for i := range whole.Counts.Raw {
		if rest.Counts.Raw[i] != whole.Counts.Raw[i] || rest.Counts.Adj[i] != whole.Counts.Adj[i] {
			t.Fatalf("row %d: resumed counts (%d,%d) != whole (%d,%d)", i,
				rest.Counts.Raw[i], rest.Counts.Adj[i], whole.Counts.Raw[i], whole.Counts.Adj[i])
		}
	}

	// A checkpoint from a different window must be rejected.
	if _, err := RunShard(p, opt, lo+1, hi, RunControl{NProcs: 1, Resume: ckpt}); err == nil {
		t.Fatal("foreign-window checkpoint accepted")
	}
}

// TestRunShardBounds pins the window validation.
func TestRunShardBounds(t *testing.T) {
	x := synthMatrix(5, 12, 0, 3)
	lab := twoClass(6, 6)
	opt := Options{Test: "t", B: 50, Seed: 1}
	p, err := Prepare(mat(x), lab, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int64{{-1, 10}, {10, 10}, {20, 10}, {0, 51}} {
		if _, err := RunShard(p, opt, w[0], w[1], RunControl{}); err == nil {
			t.Errorf("window %v accepted", w)
		}
	}
}

// TestFanOutCountsEveryIndexOnce pins the one property dynamic piece
// claiming has to keep: whichever rank claims whichever piece, the ranks'
// partial counts sum to exactly the one-rank counts of the window — for
// every statistic and generator, at batch sizes below, at and above
// rankPiece, with more ranks than pieces and windows shorter than a piece.
func TestFanOutCountsEveryIndexOnce(t *testing.T) {
	x := mat(synthMatrix(30, 12, 5, 2024))
	for _, tc := range shardCases() {
		p, err := Prepare(x, tc.lab, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg, plan, err := p.planFor(tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gen, err := p.generatorFor(cfg, plan, 0, plan.TotalB)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		spans := append(unevenSpans(plan.TotalB), [2]int64{0, plan.TotalB}, [2]int64{3, 4})
		for _, nprocs := range []int{2, 3, 7} {
			for _, batch := range []int{1, 5, rankPiece, rankPiece + 36} {
				rs := &RunScratch{}
				rs.ensure(p.prep, nprocs)
				for _, span := range spans {
					lo, hi := span[0], span[1]
					want := maxt.NewCounts(p.Rows())
					maxt.ProcessBatched(p.prep, gen, lo, hi, want, nil, batch)
					fanOut(p.prep, gen, lo, hi, rs.partials, rs.scratches, nprocs, batch, 0)
					got := maxt.NewCounts(p.Rows())
					for _, pc := range rs.partials {
						got.Merge(pc)
						pc.Reset(p.Rows())
					}
					if got.B != hi-lo || !slices.Equal(got.Raw, want.Raw) || !slices.Equal(got.Adj, want.Adj) {
						t.Fatalf("%s nprocs=%d batch=%d [%d,%d): fanned-out counts (B=%d) differ from the one-rank counts (B=%d)",
							tc.name, nprocs, batch, lo, hi, got.B, want.B)
					}
				}
			}
		}
	}
}
