package seqstop

import "testing"

func TestNewDefaults(t *testing.T) {
	c, err := New(0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Alpha != DefaultAlpha || c.Tolerance != DefaultTolerance {
		t.Fatalf("zero knobs want defaults, got alpha=%v tol=%v", c.Alpha, c.Tolerance)
	}
	if c.H != DefaultH || c.MinPerms != DefaultMinPerms || c.Delta != DefaultDelta {
		t.Fatalf("engine policy constants not applied: %+v", c)
	}
	if c.Rows != 100 {
		t.Fatalf("rows = %d, want 100", c.Rows)
	}
	if c2, err := New(0.01, 0.005, 0); err != nil || c2.Alpha != 0.01 || c2.Tolerance != 0.005 || c2.Rows != 1 {
		t.Fatalf("explicit knobs: %+v, %v", c2, err)
	}
}

func TestNewRejectsBadKnobs(t *testing.T) {
	for _, tc := range []struct{ alpha, tol float64 }{
		{-0.1, 0}, {1, 0}, {1.5, 0},
		{0, -0.01}, {0, 0.6}, {0, 2},
	} {
		if _, err := New(tc.alpha, tc.tol, 10); err == nil {
			t.Errorf("New(%v, %v) accepted, want error", tc.alpha, tc.tol)
		}
	}
}

func TestRadiusShrinksWithB(t *testing.T) {
	c, _ := New(0, 0, 6102)
	// At matched p̂ the bound tightens as b grows: the epoch log factor
	// grows like log log b, far slower than the √b in the denominator.
	prev := c.Radius(10, 1024)
	for _, b := range []int64{4096, 16384, 65536, 1 << 20} {
		r := c.Radius(10*b/1024, b)
		if r >= prev {
			t.Fatalf("radius grew from %v to %v at b=%d", prev, r, b)
		}
		prev = r
	}
	if r := c.Radius(0, 1); r != 1 {
		t.Fatalf("radius at b<2 = %v, want the vacuous bound 1", r)
	}
}

func TestRadiusVarianceSensitive(t *testing.T) {
	c, _ := New(0, 0, 1000)
	// p̂ = 0 has zero empirical variance, p̂ = 1/2 maximises it; the
	// empirical-Bernstein bound must be far tighter at the extreme — that
	// asymmetry is what lets near-zero p-values certify early.
	const b = 1 << 16
	lo := c.Radius(0, b)
	hi := c.Radius(b/2, b)
	if lo >= hi/4 {
		t.Fatalf("radius(p̂=0)=%v not ≪ radius(p̂=.5)=%v", lo, hi)
	}
}

func TestSettledGates(t *testing.T) {
	c, _ := New(0, 0, 100)
	if c.Settled(0, c.MinPerms-1) {
		t.Fatal("settled below MinPerms")
	}
	// Small b: the radius still exceeds the tolerance even at count 0.
	if c.Settled(0, 128) {
		t.Fatalf("settled at b=128 with radius %v > tolerance", c.Radius(0, 128))
	}
	// Large b, count 0: certified significant (UCB ≤ alpha) without ever
	// reaching H exceedances.
	const big = int64(1 << 20)
	if !c.Settled(0, big) {
		t.Fatalf("count 0 at b=%d not settled (radius %v)", big, c.Radius(0, big))
	}
	// Besag–Clifford path: count ≥ H with a tight radius.
	if !c.Settled(c.H, big) {
		t.Fatal("count=H with tight radius not settled")
	}
	// p̂ = 1/2 at b=16384: count ≫ H but the max-variance radius is still
	// above the 0.02 tolerance — the row keeps running...
	if c.Settled(8192, 16384) {
		t.Fatalf("p̂=0.5 settled at b=16384 (radius %v)", c.Radius(8192, 16384))
	}
	// ...and settles once b pins even the worst-case variance.
	if !c.Settled(32768, 65536) {
		t.Fatalf("p̂=0.5 not settled at b=65536 (radius %v)", c.Radius(32768, 65536))
	}
}

func TestTrackerPrefixInvariant(t *testing.T) {
	c, _ := New(0, 0, 4)
	order := []int{2, 0, 3, 1} // row indices by decreasing significance
	tr := NewTracker(c, order, 4)

	// First window, b=4096: the two count-0 rows (0 and 3) certify
	// significant and freeze; rows 2 (p̂≈0.24) and 1 (p̂≈0.10) stay active.
	raw := []int64{0, 400, 1000, 0}
	adj := []int64{0, 400, 1000, 0}
	n := tr.Observe(raw, adj, 4096)
	if n != 2 || tr.FrozenRows() != 2 {
		t.Fatalf("first window froze %d rows (total %d), want 2", n, tr.FrozenRows())
	}
	if tr.Active(2) == false || tr.Active(1) == false {
		t.Fatal("a wide-variance row froze early")
	}
	// Row 2 sits at order position 0: frozen rows exist but no prefix may
	// be dropped while the most significant row still accumulates.
	if tr.FrozenPrefix() != 0 {
		t.Fatalf("prefix = %d with position 0 active", tr.FrozenPrefix())
	}
	if tr.AllFrozen() {
		t.Fatal("AllFrozen with active rows")
	}

	// Second window, b=16384: row 2's counts turn out tiny (p̂≈0.002,
	// count ≥ H) and it settles; row 1 at p̂=0.5 still cannot.  The prefix
	// must advance across ALL frozen positions, not just the new one.
	raw = []int64{0, 8192, 30, 0}
	adj = []int64{0, 8192, 30, 0}
	tr.Observe(raw, adj, 16384)
	if tr.Active(2) {
		t.Fatal("row 2 did not settle")
	}
	if tr.Active(1) == false {
		t.Fatal("p̂=0.5 row settled too early")
	}
	if tr.FrozenPrefix() != 3 {
		t.Fatalf("prefix = %d, want 3 (positions 0-2 frozen, position 3 active)", tr.FrozenPrefix())
	}
	for j := 0; j < tr.FrozenPrefix(); j++ {
		if tr.Active(order[j]) {
			t.Fatalf("position %d inside the frozen prefix is active", j)
		}
	}
	// Frozen rows keep the b at which they froze.
	be := tr.BEff()
	if be[0] != 4096 || be[3] != 4096 || be[2] != 16384 || be[1] != 0 {
		t.Fatalf("b_eff = %v, want [4096 0 16384 4096]", be)
	}
}

func TestTrackerPermsSaved(t *testing.T) {
	c, _ := New(0, 0, 3)
	order := []int{0, 1, 2}
	tr := NewTracker(c, order, 3)
	tr.Observe([]int64{0, 0, 500}, []int64{0, 0, 500}, 4096)
	if tr.FrozenRows() != 2 || tr.AllFrozen() {
		t.Fatalf("setup: frozen %d, allFrozen %v", tr.FrozenRows(), tr.AllFrozen())
	}
	const total = int64(100000)
	if got, want := tr.PermsSaved(total), 2*(total-4096); got != want {
		t.Fatalf("PermsSaved = %d, want %d", got, want)
	}
	// A row frozen at the planned total saves nothing; earlier freezes
	// keep their committed saving.
	tr.Observe([]int64{0, 0, 0}, []int64{0, 0, 0}, total)
	if !tr.AllFrozen() || tr.FrozenPrefix() != 3 {
		t.Fatal("the last row did not freeze")
	}
	if got, want := tr.PermsSaved(total), 2*(total-4096); got != want {
		t.Fatalf("PermsSaved = %d after the last freeze, want %d", got, want)
	}
}

func TestTrackerRestoreRoundTrip(t *testing.T) {
	c, _ := New(0, 0, 4)
	order := []int{3, 1, 0, 2}
	tr := NewTracker(c, order, 4)
	tr.Observe([]int64{0, 0, 2000, 0}, []int64{0, 0, 2000, 0}, 8192)
	if tr.FrozenRows() != 3 || tr.FrozenPrefix() != 3 {
		t.Fatalf("setup: frozen %d prefix %d, want 3/3", tr.FrozenRows(), tr.FrozenPrefix())
	}

	snap := append([]int64(nil), tr.BEff()...)
	tr2 := NewTracker(c, order, 4)
	if err := tr2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if tr2.FrozenRows() != tr.FrozenRows() || tr2.FrozenPrefix() != tr.FrozenPrefix() {
		t.Fatalf("restore mismatch: frozen %d/%d prefix %d/%d",
			tr2.FrozenRows(), tr.FrozenRows(), tr2.FrozenPrefix(), tr.FrozenPrefix())
	}
	if err := tr2.Restore(make([]int64, 3)); err == nil {
		t.Fatal("restore accepted a wrong-length b_eff vector")
	}
	tr3 := NewTracker(c, order, 4)
	if err := tr3.Restore(nil); err != nil || tr3.FrozenRows() != 0 {
		t.Fatalf("nil restore: err %v frozen %d", err, tr3.FrozenRows())
	}
}

func TestObserveSkipsInvalidTail(t *testing.T) {
	c, _ := New(0, 0, 2)
	order := []int{1, 0, 2} // position 2: no computable statistic
	tr := NewTracker(c, order, 2)
	tr.Observe([]int64{0, 0, 0}, []int64{0, 0, 0}, 1<<20)
	if !tr.AllFrozen() {
		t.Fatal("valid rows not all frozen")
	}
	if tr.BEff()[2] != 0 {
		t.Fatal("invalid row acquired a b_eff")
	}
}
