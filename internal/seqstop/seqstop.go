// Package seqstop implements the sequential (early-stopping) Monte Carlo
// rules of the engine's "sequential" run mode: Besag–Clifford
// negative-binomial stopping per row and anytime-valid confidence-sequence
// bounds on the whole job's p-values.
//
// The exact engine estimates every p-value with the same number of
// permutations B.  Sequential mode instead stops each row at its own
// b_eff ≤ B, chosen so that the reported estimate count/b_eff is within an
// absolute tolerance of the true permutation p-value with high probability
// — simultaneously over every row and every stopping time.  Two rules
// compose:
//
//  1. Besag & Clifford (1991): once a row has accumulated h exceedances of
//     its observed statistic, the negative-binomial estimator count/b is
//     reliable in relative terms; h is the classic sequential Monte Carlo
//     knob.  Rows that could still be significant (too few exceedances)
//     keep running unless rule 2 certifies them.
//  2. An anytime-valid confidence sequence: the empirical-Bernstein bound
//     of Maurer & Pontil (2009), made valid at every sample size by a
//     union bound over doubling epochs and across rows.  A row may stop
//     only when its radius is within the configured tolerance; a row whose
//     upper confidence bound is below the target significance level is
//     certified significant and may stop without h exceedances.
//
// Validity is the reason deactivation must respect the step-down
// structure: the adjusted count of the row at ordered position j depends
// only on rows at positions >= j, so rows may leave the computation only
// as a frozen PREFIX of the significance order.  The Tracker enforces
// exactly that: rows freeze individually (their counts stop accumulating,
// pinning count/b_eff), but the kernel may drop only the maximal
// all-frozen prefix — every still-active row's successive maxima remain
// exact, never approximated.
package seqstop

import (
	"fmt"
	"math"
)

// Defaults for the sequential rule's knobs.  DefaultAlpha and
// DefaultTolerance fill the zero values of the public options; the
// remaining constants are engine policy, deliberately not exposed through
// the API.
const (
	// DefaultAlpha is the significance threshold of interest: rows whose
	// upper confidence bound falls below it are certified significant and
	// may stop before reaching h exceedances.
	DefaultAlpha = 0.05
	// DefaultTolerance is the absolute p-value error budget |p̂ − p| the
	// confidence sequence enforces at stopping time.
	DefaultTolerance = 0.02
	// DefaultH is the Besag–Clifford exceedance requirement: a row with at
	// least this many exceedances has a stable negative-binomial estimate.
	DefaultH = 20
	// DefaultMinPerms is the smallest permutation count at which any row
	// may stop; it keeps the asymptotic bound honest at tiny b.
	DefaultMinPerms = 128
	// DefaultDelta is the confidence budget of the whole job: with
	// probability at least 1−DefaultDelta, EVERY row's reported p-value is
	// within the tolerance of its exact value, at every stopping time.
	// The budget is split uniformly across rows and doubling epochs.
	DefaultDelta = 0.05
)

// Config carries the validated sequential-rule parameters for one job.
type Config struct {
	// Alpha is the significance threshold of interest (target_alpha).
	Alpha float64
	// Tolerance is the absolute p-value error budget (p_tolerance).
	Tolerance float64
	// H is the Besag–Clifford exceedance requirement.
	H int64
	// MinPerms floors the permutation count of any stopping decision.
	MinPerms int64
	// Delta is the whole-job confidence budget; rows divides it so the
	// tolerance holds simultaneously over all rows.
	Delta float64
	// Rows is the number of hypotheses sharing the Delta budget.
	Rows int
}

// New returns the rule configuration for a job of rows hypotheses, filling
// engine defaults for zero-valued alpha and tolerance.
func New(alpha, tolerance float64, rows int) (Config, error) {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if tolerance == 0 {
		tolerance = DefaultTolerance
	}
	if alpha <= 0 || alpha >= 1 {
		return Config{}, fmt.Errorf("seqstop: target alpha %v outside (0, 1)", alpha)
	}
	if tolerance <= 0 || tolerance > 0.5 {
		return Config{}, fmt.Errorf("seqstop: p tolerance %v outside (0, 0.5]", tolerance)
	}
	if rows < 1 {
		rows = 1
	}
	return Config{
		Alpha:     alpha,
		Tolerance: tolerance,
		H:         DefaultH,
		MinPerms:  DefaultMinPerms,
		Delta:     DefaultDelta,
		Rows:      rows,
	}, nil
}

// Radius returns the anytime-valid confidence radius around the estimate
// count/b: with probability at least 1−Delta, |count/b − p| <= Radius for
// EVERY b simultaneously and every row sharing the budget.  The bound is
// the empirical-Bernstein inequality of Maurer & Pontil applied with
// failure probability Delta/(Rows·k(k+1)) in the k-th doubling epoch
// (k = ⌊log2 b⌋ + 1); summing Delta/(k(k+1)) over all epochs telescopes
// to Delta/Rows, and the union over rows spends exactly Delta.
func (c Config) Radius(count, b int64) float64 {
	if b < 2 {
		return 1
	}
	bf := float64(b)
	p := float64(count) / bf
	// Rounded on its own: 2*v below compiles to v+v, which arm64 would
	// otherwise fuse with this product.
	v := float64(p * (1 - p))
	k := math.Floor(math.Log2(bf)) + 1
	l := math.Log(3 * k * (k + 1) * float64(c.Rows) / c.Delta)
	return math.Sqrt(2*v*l/bf) + 3*l/bf
}

// Settled reports whether one exceedance count is pinned tightly enough to
// stop: the confidence radius is within the tolerance AND either the
// Besag–Clifford requirement holds (count >= H, the estimate is stable)
// or the row is certified significant (upper confidence bound <= Alpha —
// such rows never accumulate H exceedances, but their p-value is already
// known to absolute tolerance and their verdict at Alpha is decided).
func (c Config) Settled(count, b int64) bool {
	if b < c.MinPerms {
		return false
	}
	r := c.Radius(count, b)
	if r > c.Tolerance {
		return false
	}
	if count >= c.H {
		return true
	}
	return float64(count)/float64(b)+r <= c.Alpha
}

// Tracker drives per-row freezing for one sequential run.  It observes the
// accumulated raw and step-down exceedance counts at window boundaries,
// freezes rows whose raw AND adjusted counts are both settled, and
// maintains the maximal frozen prefix of the significance order — the rows
// the kernel may stop computing.  All decisions are pure functions of the
// (deterministic) counts, so a resumed run freezes exactly the rows an
// uninterrupted run would.
type Tracker struct {
	cfg   Config
	order []int // row indices by decreasing significance (shared, read-only)
	valid int   // leading positions of order with computable statistics

	bEff   []int64 // by row index: permutations covered when frozen; 0 = active
	prefix int     // positions [0, prefix) of order are all frozen
	frozen int     // frozen rows among the valid positions
}

// NewTracker starts tracking a run over the given significance order, of
// which the first valid positions carry computable statistics.  bEff has
// one slot per matrix row.
func NewTracker(cfg Config, order []int, valid int) *Tracker {
	return &Tracker{
		cfg:   cfg,
		order: order,
		valid: valid,
		bEff:  make([]int64, len(order)),
	}
}

// Restore re-establishes frozen state from a checkpoint's b_eff vector
// (nil means nothing was frozen).
func (t *Tracker) Restore(bEff []int64) error {
	if bEff == nil {
		return nil
	}
	if len(bEff) != len(t.bEff) {
		return fmt.Errorf("seqstop: restoring %d b_eff entries into a %d-row tracker", len(bEff), len(t.bEff))
	}
	copy(t.bEff, bEff)
	t.frozen = 0
	for j := 0; j < t.valid; j++ {
		if t.bEff[t.order[j]] != 0 {
			t.frozen++
		}
	}
	t.advancePrefix()
	return nil
}

// Observe applies the stopping rule at a window boundary: raw and adj are
// the accumulated exceedance counts by matrix row, covering b permutations
// for every still-active row.  Newly settled rows freeze with b_eff = b.
// It returns how many rows froze on this call.
func (t *Tracker) Observe(raw, adj []int64, b int64) int {
	newly := 0
	for j := 0; j < t.valid; j++ {
		r := t.order[j]
		if t.bEff[r] != 0 {
			continue
		}
		if t.cfg.Settled(raw[r], b) && t.cfg.Settled(adj[r], b) {
			t.bEff[r] = b
			t.frozen++
			newly++
		}
	}
	if newly > 0 {
		t.advancePrefix()
	}
	return newly
}

// advancePrefix extends the maximal all-frozen prefix of the order.
func (t *Tracker) advancePrefix() {
	for t.prefix < t.valid && t.bEff[t.order[t.prefix]] != 0 {
		t.prefix++
	}
}

// Active reports whether the given matrix row still accumulates counts.
func (t *Tracker) Active(row int) bool { return t.bEff[row] == 0 }

// FrozenPrefix returns how many leading positions of the order are frozen
// — the rows the kernel may drop without touching any active row's
// successive maxima.
func (t *Tracker) FrozenPrefix() int { return t.prefix }

// FrozenRows returns how many valid rows are frozen.
func (t *Tracker) FrozenRows() int { return t.frozen }

// AllFrozen reports whole-job termination: every valid row is frozen, so
// every p-value is pinned within tolerance and the run may stop.
func (t *Tracker) AllFrozen() bool { return t.frozen == t.valid }

// BEff returns the per-row effective permutation counts (0 = still
// active, and permanently 0 for rows with no computable statistic).  The
// slice is the tracker's own; callers snapshot it before mutating state.
func (t *Tracker) BEff() []int64 { return t.bEff }

// PermsSaved returns the permutations already committed as saved against a
// planned total: the sum over frozen rows of totalB − b_eff.  It grows
// monotonically as rows freeze and equals the job's final row-permutation
// saving once every row is frozen.
func (t *Tracker) PermsSaved(totalB int64) int64 {
	var saved int64
	for j := 0; j < t.valid; j++ {
		if be := t.bEff[t.order[j]]; be > 0 && be < totalB {
			saved += totalB - be
		}
	}
	return saved
}
