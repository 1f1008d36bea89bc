package maxt

import (
	"math"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// TestSubsetCountsBitwiseEqualFullPrep is the sequential engine's load-
// bearing invariant: processing a suffix of the significance order — by
// starting the run at its first position, or through a sub-prep compacted
// to it (subPrep, what the engine used to build) — accumulates, permutation
// for permutation, exactly the counts the full run produces for those rows.
func TestSubsetCountsBitwiseEqualFullPrep(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	const B = 400
	gen := perm.NewRandom(p.Design, 21, B)
	full := NewCounts(p.Rows())
	ProcessFrom(p, gen, 0, B, full, nil, 1, 0)

	// Drop every possible frozen prefix of the order.
	for prefix := 0; prefix < p.Valid; prefix++ {
		sub := subPrep(t, p, tinyMatrix(t), false, prefix)
		subCounts := NewCounts(sub.Rows())
		ProcessFrom(sub, gen, 0, B, subCounts, nil, 1, 0)
		for si, r := range p.Order[prefix:p.Valid] {
			if subCounts.Raw[si] != full.Raw[r] || subCounts.Adj[si] != full.Adj[r] {
				t.Fatalf("prefix %d row %d: sub (raw=%d,adj=%d) != full (raw=%d,adj=%d)",
					prefix, r, subCounts.Raw[si], subCounts.Adj[si], full.Raw[r], full.Adj[r])
			}
		}
		if subCounts.B != full.B {
			t.Fatalf("prefix %d: sub B=%d, full B=%d", prefix, subCounts.B, full.B)
		}
		from := NewCounts(p.Rows())
		ProcessFrom(p, gen, 0, B, from, nil, 1, prefix)
		requireCountsFrom(t, p, prefix, from, full)
	}
}

// TestSubsetBatchedEqualsUnbatched guards the suffix down the batched
// kernel path the sequential engine actually runs.
func TestSubsetBatchedEqualsUnbatched(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	const B = 256
	gen := perm.NewRandom(p.Design, 5, B)
	sub := subPrep(t, p, tinyMatrix(t), false, 1)
	plain := NewCounts(sub.Rows())
	ProcessFrom(sub, gen, 0, B, plain, nil, 1, 0)
	batched := NewCounts(sub.Rows())
	ProcessBatched(sub, gen, 0, B, batched, sub.NewScratch(), 64)
	from := NewCounts(p.Rows())
	ProcessFrom(p, gen, 0, B, from, p.NewScratch(), 64, 1)
	for i := range plain.Raw {
		if plain.Raw[i] != batched.Raw[i] || plain.Adj[i] != batched.Adj[i] {
			t.Fatalf("row %d: batched subset counts differ", i)
		}
		if r := p.Order[1+i]; plain.Raw[i] != from.Raw[r] || plain.Adj[i] != from.Adj[r] {
			t.Fatalf("row %d: batched counts from position 1 differ", r)
		}
	}
}

// TestFinalizeEffectiveUniformMatchesFinalize: with a uniform bEff equal
// to the shared B, the effective finalisation is exactly the classic one.
func TestFinalizeEffectiveUniformMatchesFinalize(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	const B = 300
	c := NewCounts(p.Rows())
	ProcessFrom(p, perm.NewRandom(p.Design, 13, B), 0, B, c, nil, 1, 0)

	want := Finalize(p, c)
	bEff := make([]int64, p.Rows())
	for j := 0; j < p.Valid; j++ {
		bEff[p.Order[j]] = c.B
	}
	got := FinalizeEffective(p, c, bEff)
	for i := range want.RawP {
		if math.Float64bits(want.RawP[i]) != math.Float64bits(got.RawP[i]) ||
			math.Float64bits(want.AdjP[i]) != math.Float64bits(got.AdjP[i]) {
			t.Fatalf("row %d: uniform effective (%v,%v) != classic (%v,%v)",
				i, got.RawP[i], got.AdjP[i], want.RawP[i], want.AdjP[i])
		}
	}
}

// TestFinalizeEffectivePerRowDivisors: each row divides by its own
// effective count, rows with bEff 0 get NaN, and the adjusted values stay
// monotone along the order.
func TestFinalizeEffectivePerRowDivisors(t *testing.T) {
	p := mustPrep(t, tinyX, stat.Welch, tinyLabels, Abs)
	c := NewCounts(p.Rows())
	bEff := make([]int64, p.Rows())
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		bEff[r] = int64(100 * (j + 1))
		c.Raw[r] = int64(j + 1)
		c.Adj[r] = int64(j + 1)
	}
	c.B = 600
	// One frozen-out row: simulate a row with no effective count.
	drop := p.Order[p.Valid-1]
	bEff[drop] = 0

	res := FinalizeEffective(p, c, bEff)
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		if r == drop {
			if !math.IsNaN(res.RawP[r]) || !math.IsNaN(res.AdjP[r]) {
				t.Fatalf("bEff=0 row got p-values %v/%v, want NaN", res.RawP[r], res.AdjP[r])
			}
			continue
		}
		want := float64(j+1) / float64(100*(j+1))
		if res.RawP[r] != want {
			t.Fatalf("row %d: RawP = %v, want count/bEff = %v", r, res.RawP[r], want)
		}
	}
	prev := 0.0
	for j := 0; j < p.Valid; j++ {
		r := p.Order[j]
		if math.IsNaN(res.AdjP[r]) {
			continue
		}
		if res.AdjP[r] < prev {
			t.Fatalf("adjusted p-values not monotone: %v after %v", res.AdjP[r], prev)
		}
		prev = res.AdjP[r]
	}
}

// tinyMatrix is tinyX as the flat matrix newPrep builds p from.
func tinyMatrix(t *testing.T) matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(tinyX)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
