package perm

import (
	"fmt"
	"math"
	"sync"

	"sprint/internal/stat"
)

// RevolvingDoor enumerates the complete labelling set of a two-sample
// design in the Nijenhuis–Wilf revolving-door Gray order: consecutive
// labellings differ by exactly one element exchange — one column leaves
// class 1 and one enters.  The enumerated SET is identical to Complete's
// (every distinct labelling exactly once, the observed labelling at index
// 0), only the order differs, so exceedance counts, p-values, cache keys
// — anything summed over the whole sequence — are unchanged.  What the
// order buys is the delta fast path: stat.DeltaKernel updates each row's
// class sums with one subtract and one add per permutation instead of
// re-accumulating O(n1) elements (exact on integer rank data, hence
// bitwise identical to full re-evaluation).
//
// Index mapping.  The underlying Gray sequence R(n,k) is CYCLIC — its
// last combination {0..k-2, n-1} and first {0..k-1} also differ by one
// exchange — so the generator rotates it to start at the observed
// labelling: sequence index idx denotes Gray rank (obsRank + idx) mod
// total.  Every consecutive index pair, including the wrap, is a single
// exchange, and unranking is O(n) at ANY index, so chunked windows and
// checkpoints seed at arbitrary offsets exactly as with Complete
// ("rank-aligned unranking").
//
// Folded (NewFolded), the door enumerates one labelling of each
// complement pair of a balanced design: the class-1 sets that leave
// column n−1 in class 0, the list R(n−1, k) — still cyclic, so all of
// the above holds unchanged.
//
// Like every generator, RevolvingDoor is safe for concurrent use; batch
// scratch is pooled internally so steady-state LabelsDelta calls allocate
// nothing.
type RevolvingDoor struct {
	design  *stat.Design
	n, k    int // the Gray list R(n, k): n is d.N, or d.N−1 folded
	total   int64
	obsRank int64
	binom   []int64 // (n+1)×(k+1) Pascal table: binom[i*(k+1)+j] = C(i,j)
	pool    sync.Pool
}

type doorScratch struct {
	prev, cur []int
}

// RevolvingDoorOK reports whether the design admits the revolving-door
// order: a free two-class shuffle (t, t.equalvar, wilcoxon — and the
// two-class F) whose complete count fits in int64.
func RevolvingDoorOK(d *stat.Design) bool {
	if designKind(d) != kindShuffle || d.K != 2 {
		return false
	}
	_, ok := Binomial(d.N, d.Counts[1])
	return ok
}

// NewRevolvingDoor builds the revolving-door generator for the design, or
// an error when the design is not a two-sample shuffle or the labelling
// count overflows (ErrTooManyPermutations).
func NewRevolvingDoor(d *stat.Design) (*RevolvingDoor, error) {
	if designKind(d) != kindShuffle || d.K != 2 {
		return nil, fmt.Errorf("perm: revolving-door order requires a two-class shuffle design, have %v with %d classes", d.Test, d.K)
	}
	return newDoor(d, d.N, labelPositions(d.Labels, 1))
}

// newDoor builds the door over R(n, |obs|), rotated to start at the
// class-1 set obs.
func newDoor(d *stat.Design, n int, obs []int) (*RevolvingDoor, error) {
	total, ok := Binomial(n, len(obs))
	if !ok {
		return nil, fmt.Errorf("%w (design %v with %d columns)", ErrTooManyPermutations, d.Test, d.N)
	}
	g := &RevolvingDoor{design: d, n: n, k: len(obs), total: total}
	g.binom = make([]int64, (g.n+1)*(g.k+1))
	for i := 0; i <= g.n; i++ {
		for j := 0; j <= g.k; j++ {
			// Entries actually read by rank/unrank are the subproblem
			// sizes of the recursion, and those only shrink from the root
			// C(n, k) = total, so every read entry fits.  Other cells of
			// the rectangle can exceed total (k > n/2 designs) or even
			// int64; saturate them — a saturated C(i-1, k) still compares
			// correctly against any rank r < total (r >= c is false,
			// exactly as for the true oversized value), so even an
			// out-of-invariant read would not misroute the unranking.
			c, ok := Binomial(i, j)
			if !ok {
				c = math.MaxInt64
			}
			g.binom[i*(g.k+1)+j] = c
		}
	}
	g.pool.New = func() any {
		return &doorScratch{prev: make([]int, g.k), cur: make([]int, g.k)}
	}
	g.obsRank = g.rank(obs)
	return g, nil
}

// c returns C(i, j) from the precomputed table.
func (g *RevolvingDoor) c(i, j int) int64 {
	if j < 0 || j > g.k || i < 0 {
		return 0
	}
	return g.binom[i*(g.k+1)+j]
}

// unrank writes the Gray-rank-r k-combination of 0..n-1 into comb
// (ascending).  The recursion mirrors the list structure
// R(i,k) = R(i-1,k) ++ reverse(R(i-1,k-1))·(i-1): a rank past C(i-1,k)
// selects element i-1 and continues at the REVERSED position within the
// (i-1, k-1) sublist — the direction flip that makes the order a Gray
// code.
func (g *RevolvingDoor) unrank(r int64, comb []int) {
	k := g.k
	for i := g.n; k > 0; i-- {
		if k == i {
			// R(i,i) is the single combination {0..i-1}.
			for j := 0; j < i; j++ {
				comb[j] = j
			}
			return
		}
		if ci := g.c(i-1, k); r >= ci {
			comb[k-1] = i - 1
			r = ci + g.c(i-1, k-1) - 1 - r
			k--
		}
	}
}

// rank is the inverse of unrank: the Gray rank of the ascending
// k-combination comb.  The alternating sign tracks the direction
// reversals down the recursion.
func (g *RevolvingDoor) rank(comb []int) int64 {
	var r int64
	neg := false
	k := g.k
	for i := g.n; k > 0; i-- {
		if comb[k-1] == i-1 {
			term := g.c(i-1, k) + g.c(i-1, k-1) - 1
			if neg {
				r -= term
			} else {
				r += term
			}
			neg = !neg
			k--
		}
	}
	return r
}

// grayRank maps a sequence index to its Gray rank: the rotation that puts
// the observed labelling at index 0.
func (g *RevolvingDoor) grayRank(idx int64) int64 {
	r := g.obsRank + idx
	if r >= g.total {
		r -= g.total
	}
	return r
}

// fill writes the labelling of a class-1 combination into dst.
func fillLabelling(dst []int, comb []int) {
	for i := range dst {
		dst[i] = 0
	}
	for _, c := range comb {
		dst[c] = 1
	}
}

// Total implements Generator.
func (g *RevolvingDoor) Total() int64 { return g.total }

// Label implements Generator.
func (g *RevolvingDoor) Label(idx int64, dst []int) {
	if idx < 0 || idx >= g.total {
		panic(fmt.Sprintf("perm: revolving-door index %d out of range [0,%d)", idx, g.total))
	}
	sc := g.pool.Get().(*doorScratch)
	g.unrank(g.grayRank(idx), sc.cur)
	fillLabelling(dst, sc.cur)
	g.pool.Put(sc)
}

// Labels implements Generator: n successive labellings from start, each
// unranked at its own Gray rank (the Pascal table makes one unrank an
// O(columns) integer walk).
func (g *RevolvingDoor) Labels(start, n int64, dst []int) {
	g.checkRange(start, n)
	sc := g.pool.Get().(*doorScratch)
	w := int64(g.design.N)
	for i := int64(0); i < n; i++ {
		g.unrank(g.grayRank(start+i), sc.cur)
		fillLabelling(dst[i*w:(i+1)*w], sc.cur)
	}
	g.pool.Put(sc)
}

// LabelsDelta implements DeltaGenerator: lab0 receives the labelling of
// permutation start and moves[0:n-1] the single exchanges leading to
// start+1 .. start+n-1, in order.  Equivalent to n Label calls with each
// consecutive pair diffed; the Gray property guarantees every diff is
// exactly one element out, one in (enforced — a violation panics, since
// the delta kernels' correctness depends on it).
func (g *RevolvingDoor) LabelsDelta(start, n int64, lab0 []int, moves []stat.Exchange) {
	g.checkRange(start, n)
	if n == 0 {
		return
	}
	if int64(len(moves)) < n-1 {
		panic(fmt.Sprintf("perm: revolving-door delta batch of %d needs %d moves, have %d", n, n-1, len(moves)))
	}
	sc := g.pool.Get().(*doorScratch)
	prev, cur := sc.prev, sc.cur
	g.unrank(g.grayRank(start), prev)
	fillLabelling(lab0, prev)
	for i := int64(1); i < n; i++ {
		g.unrank(g.grayRank(start+i), cur)
		moves[i-1] = diffComb(prev, cur)
		prev, cur = cur, prev
	}
	sc.prev, sc.cur = prev, cur
	g.pool.Put(sc)
}

func (g *RevolvingDoor) checkRange(start, n int64) {
	if start < 0 || n < 0 || start+n > g.total {
		panic(fmt.Sprintf("perm: revolving-door batch [%d,%d) out of range [0,%d)", start, start+n, g.total))
	}
}

// diffComb returns the single exchange turning sorted combination a into
// sorted combination b, panicking if they differ by more than one element
// on either side (which would break the Gray invariant).
func diffComb(a, b []int) stat.Exchange {
	out, in := -1, -1
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			if out >= 0 {
				panic("perm: revolving-door step removed two elements")
			}
			out = a[i]
			i++
		default:
			if in >= 0 {
				panic("perm: revolving-door step added two elements")
			}
			in = b[j]
			j++
		}
	}
	if i < len(a) {
		if out >= 0 {
			panic("perm: revolving-door step removed two elements")
		}
		out = a[i]
	}
	if j < len(b) {
		if in >= 0 {
			panic("perm: revolving-door step added two elements")
		}
		in = b[j]
	}
	if out < 0 || in < 0 {
		panic("perm: revolving-door step is not a single exchange")
	}
	return stat.Exchange{Out: int32(out), In: int32(in)}
}
