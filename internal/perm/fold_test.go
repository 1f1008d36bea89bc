package perm

import (
	"fmt"
	"testing"

	"sprint/internal/stat"
)

// complement returns the orbit partner of lab: the class swap of a
// two-sample labelling, which for a paired design is the full flip.
func complement(lab []int) []int {
	out := make([]int, len(lab))
	for i, l := range lab {
		out[i] = 1 - l
	}
	return out
}

// foldDesigns are the Foldable designs the fold tests walk: balanced
// two-class shuffles whose observed labelling puts the last column in
// class 0 and in class 1, and paired designs.
func foldDesigns(t *testing.T) map[string]*stat.Design {
	t.Helper()
	out := make(map[string]*stat.Design)
	for _, lab := range [][]int{
		{0, 0, 1, 1}, {1, 0, 1, 0},
		{0, 0, 0, 1, 1, 1}, {1, 1, 0, 0, 1, 0},
		{0, 1, 1, 0, 0, 1, 1, 0}, {1, 1, 1, 1, 0, 0, 0, 0},
		{0, 1, 0, 1, 1, 0, 1, 0, 0, 1}, {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1},
	} {
		for _, test := range []stat.Test{stat.Welch, stat.Wilcoxon, stat.F} {
			out[fmt.Sprintf("%v%v", test, lab)] = mustDesign(t, test, lab)
		}
	}
	for _, lab := range [][]int{
		{0, 1, 0, 1}, {1, 0, 0, 1, 1, 0}, {0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0},
	} {
		out[fmt.Sprintf("pairt%v", lab)] = mustDesign(t, stat.PairT, lab)
	}
	return out
}

// TestFoldedCoversComplete: the folded sequence and its complements hold
// every labelling of the complete enumeration exactly once, the observed
// labelling's pair comes first, and the observed labelling itself does
// when it leaves the pinned column (or pair) unflipped.
func TestFoldedCoversComplete(t *testing.T) {
	for name, d := range foldDesigns(t) {
		t.Run(name, func(t *testing.T) {
			if !Foldable(d) {
				t.Fatal("design not foldable")
			}
			g, err := NewFolded(d)
			if err != nil {
				t.Fatal(err)
			}
			full, _ := CompleteCount(d)
			if 2*g.Total() != full {
				t.Fatalf("folded total %d, complete count %d", g.Total(), full)
			}
			seen := make(map[string]int64, full)
			lab := make([]int, d.N)
			for idx := int64(0); idx < g.Total(); idx++ {
				g.Label(idx, lab)
				for _, l := range [][]int{lab, complement(lab)} {
					key := combKey(l)
					if prev, dup := seen[key]; dup {
						t.Fatalf("labelling %s at folded index %d and again at %d", key, prev, idx)
					}
					seen[key] = idx
				}
			}
			comp, err := NewComplete(d)
			if err != nil {
				t.Fatal(err)
			}
			for idx := int64(0); idx < comp.Total(); idx++ {
				comp.Label(idx, lab)
				if _, ok := seen[combKey(lab)]; !ok {
					t.Fatalf("complete labelling %v (index %d) not covered by the fold", lab, idx)
				}
			}
			g.Label(0, lab)
			obs := combKey(d.Labels)
			if combKey(lab) != obs && combKey(complement(lab)) != obs {
				t.Fatalf("index 0 = %v, want the observed %v or its complement", lab, d.Labels)
			}
			// The door pins column n−1 to class 0; the paired fold pins the
			// last pair unflipped, which the observed labelling is.
			if (d.Test == stat.PairT || d.Labels[d.N-1] == 0) != (combKey(lab) == obs) {
				t.Fatalf("index 0 = %v for observed %v: the pinned column decides which of the pair comes first", lab, d.Labels)
			}
		})
	}
}

// TestFoldedDoorGrayAndUnrank: consecutive folded door labellings,
// including the wrap, differ by one exchange; LabelsDelta and Labels
// at any start equal stepping Label from index 0.
func TestFoldedDoorGrayAndUnrank(t *testing.T) {
	for name, d := range foldDesigns(t) {
		if d.Test == stat.PairT {
			continue
		}
		t.Run(name, func(t *testing.T) {
			f, err := NewFolded(d)
			if err != nil {
				t.Fatal(err)
			}
			g := f.(DeltaGenerator)
			total := g.Total()
			step := make([][]int, total)
			for idx := range step {
				step[idx] = make([]int, d.N)
				g.Label(int64(idx), step[idx])
			}
			for idx := int64(0); idx < total && total > 1; idx++ {
				a, b := step[idx], step[(idx+1)%total]
				diff := 0
				for j := range a {
					if a[j] != b[j] {
						diff++
					}
				}
				if diff != 2 {
					t.Fatalf("step %d -> %d changes %d positions: %v -> %v", idx, (idx+1)%total, diff, a, b)
				}
			}
			for start := int64(0); start < total; start++ {
				n := min(total-start, 7)
				labs := make([]int, n*int64(d.N))
				g.Labels(start, n, labs)
				lab0 := make([]int, d.N)
				moves := make([]stat.Exchange, max(n-1, 0))
				g.LabelsDelta(start, n, lab0, moves)
				cur := append([]int(nil), lab0...)
				for i := int64(0); i < n; i++ {
					if i > 0 {
						m := moves[i-1]
						if cur[m.Out] != 1 || cur[m.In] != 0 {
							t.Fatalf("start %d move %d: %+v does not exchange a class-1 column for a class-0 one in %v", start, i, m, cur)
						}
						cur[m.Out], cur[m.In] = 0, 1
					}
					want := combKey(step[start+i])
					if got := combKey(labs[i*int64(d.N) : (i+1)*int64(d.N)]); got != want {
						t.Fatalf("Labels(%d)[%d] = %s, stepping gives %s", start, i, got, want)
					}
					if got := combKey(cur); got != want {
						t.Fatalf("LabelsDelta(%d) after %d moves = %s, stepping gives %s", start, i, got, want)
					}
				}
			}
		})
	}
}

// TestFoldedPairFlipFirstHalf: the folded paired generator is the first
// half of Complete's mask order — the masks that leave the last pair
// unflipped — with the observed labelling at index 0.
func TestFoldedPairFlipFirstHalf(t *testing.T) {
	d := mustDesign(t, stat.PairT, []int{1, 0, 0, 1, 1, 0, 0, 1, 0, 1})
	g, err := NewFolded(d)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewComplete(d)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total() != comp.Total()/2 {
		t.Fatalf("folded total %d, complete %d", g.Total(), comp.Total())
	}
	a, b := make([]int, d.N), make([]int, d.N)
	for idx := int64(0); idx < g.Total(); idx++ {
		g.Label(idx, a)
		comp.Label(idx, b)
		if !labelsEqual(a, b) {
			t.Fatalf("index %d: folded %v, complete %v", idx, a, b)
		}
		if a[d.N-2] != d.Labels[d.N-2] {
			t.Fatalf("index %d flips the last pair: %v", idx, a)
		}
	}
	labs := make([]int, g.Total()*int64(d.N))
	g.Labels(0, g.Total(), labs)
	for idx := int64(0); idx < g.Total(); idx++ {
		g.Label(idx, a)
		if !labelsEqual(a, labs[idx*int64(d.N):(idx+1)*int64(d.N)]) {
			t.Fatalf("Labels[%d] differs from Label", idx)
		}
	}
}

// TestFoldable: only designs whose labellings pair with a distinct
// partner fold.
func TestFoldable(t *testing.T) {
	for _, tc := range []struct {
		test stat.Test
		lab  []int
		want bool
	}{
		{stat.Welch, []int{0, 0, 1, 1}, true},
		{stat.TEqualVar, []int{0, 1, 0, 1, 1, 0}, true},
		{stat.Wilcoxon, []int{1, 1, 0, 0}, true},
		{stat.F, []int{0, 0, 1, 1}, true},
		{stat.PairT, []int{0, 1, 1, 0}, true},
		{stat.Welch, []int{0, 0, 0, 1, 1}, false},
		{stat.Wilcoxon, []int{0, 0, 1, 1, 1, 1}, false},
		{stat.F, []int{0, 0, 1, 1, 2, 2}, false},
		{stat.BlockF, []int{0, 1, 1, 0, 0, 1}, false},
	} {
		d := mustDesign(t, tc.test, tc.lab)
		if got := Foldable(d); got != tc.want {
			t.Errorf("%v %v: Foldable %v, want %v", tc.test, tc.lab, got, tc.want)
		}
		if _, err := NewFolded(d); (err == nil) != tc.want {
			t.Errorf("%v %v: NewFolded error %v, want foldable %v", tc.test, tc.lab, err, tc.want)
		}
	}
}
