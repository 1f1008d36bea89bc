// Package perm implements the permutation generators of mt.maxT / pmaxT.
//
// The paper's parallelisation distributes the permutation *count*: each MPI
// rank owns a contiguous chunk of the global permutation sequence and must
// be able to "forward" its generator to the first permutation of the chunk
// (Figure 2).  We expose every generator through an indexed interface —
// Label(idx, dst) produces the labelling of permutation idx — which makes
// the skip a starting index rather than a stateful fast-forward:
//
//   - index 0 is always the observed labelling (the paper's "first
//     permutation [that] depends on the initial labelling of the columns"),
//     processed only by the master;
//   - the random on-the-fly generator (fixed.seed.sampling = "y") derives
//     permutation idx from an independent counter-based stream, so indexing
//     is O(1) — this matches multtest's fixed-seed sampling, where the
//     labelling of permutation b is a pure function of (seed, b);
//   - the stored generator (fixed.seed.sampling = "n") draws shuffles from
//     one sequential stream; a rank materialises its chunk by drawing and
//     discarding the prefix, exactly the paper's "skip a number of cycles
//     and forward to the appropriate permutation";
//   - the complete generators enumerate every distinct labelling via
//     combinatorial unranking (combinadic, factoradic, multiset, bitmask),
//     reordered so the observed labelling comes first.
//
// All generators are safe for concurrent use by multiple goroutines, with
// the caveat that each caller must pass its own dst slice.
package perm

import (
	"fmt"
	"math"

	"sprint/internal/rng"
	"sprint/internal/stat"
)

// Generator produces column labellings for permutation indices.
type Generator interface {
	// Total returns the number of permutations in the sequence,
	// including the observed labelling at index 0.
	Total() int64
	// Label fills dst (length = number of columns) with the labelling of
	// permutation idx, which must lie in [0, Total()) — and additionally
	// within the constructed chunk for stored generators.
	Label(idx int64, dst []int)
	// Labels is the batch unranker: it fills dst (n × columns, row-major)
	// with the labellings of permutations start..start+n-1, equivalent to
	// n successive Label calls but amortising per-call unrank setup
	// (combinadic scratch, RNG stream seeding) across the batch.  The
	// range obeys the same bounds as Label.
	Labels(start, n int64, dst []int)
}

// DeltaGenerator is implemented by generators whose consecutive labellings
// differ by a single element exchange (perm.RevolvingDoor).  The delta
// form feeds stat.DeltaKernel's O(1)-per-permutation update path; callers
// that cannot use it fall back to Labels.
type DeltaGenerator interface {
	Generator
	// LabelsDelta fills lab0 with the labelling of permutation start and
	// moves[0:n-1] with the exchanges leading to permutations start+1 ..
	// start+n-1.  The range obeys the same bounds as Label.
	LabelsDelta(start, n int64, lab0 []int, moves []stat.Exchange)
}

// kind discriminates the four permutation actions.
type kind int

const (
	kindShuffle      kind = iota // shuffle the whole label vector (two-sample, F)
	kindPairFlip                 // flip labels within pairs (paired t)
	kindBlockShuffle             // shuffle labels within each block (block F)
)

func designKind(d *stat.Design) kind {
	switch d.Test {
	case stat.PairT:
		return kindPairFlip
	case stat.BlockF:
		return kindBlockShuffle
	default:
		return kindShuffle
	}
}

// CompleteCount returns the number of distinct labellings for the design
// and whether that count fits in int64.  It is what mt.maxT compares
// against the "maximum allowed limit" when the user passes B = 0.
func CompleteCount(d *stat.Design) (int64, bool) {
	switch designKind(d) {
	case kindPairFlip:
		return Pow(2, d.Pairs)
	case kindBlockShuffle:
		f, ok := Factorial(d.BlockSize)
		if !ok {
			return 0, false
		}
		return Pow(f, d.Blocks)
	default:
		return Multinomial(d.Counts)
	}
}

// Foldable reports whether the design's complete labelling set is a union
// of complement pairs, each labelling distinct from its partner: a
// balanced two-class shuffle (the complement swaps the classes) or a
// paired design (the complement flips every pair).  Whether the pair's
// two statistics count alike is the caller's question — they do when
// the statistic is invariant under the swap or negates under it and is
// compared by magnitude.
func Foldable(d *stat.Design) bool {
	switch designKind(d) {
	case kindPairFlip:
		return true
	case kindShuffle:
		return d.K == 2 && d.Counts[0] == d.Counts[1]
	}
	return false
}

// NewFolded builds the generator of one labelling per complement pair of
// a Foldable design, half of CompleteCount in all, the observed
// labelling's pair at index 0: the folded revolving door of a balanced
// two-class design, and for a paired design Complete's first half —
// the masks that leave the last pair unflipped.
func NewFolded(d *stat.Design) (Generator, error) {
	if !Foldable(d) {
		return nil, fmt.Errorf("perm: design %v with class counts %v has no complement pairs to fold", d.Test, d.Counts)
	}
	if designKind(d) == kindShuffle {
		// The door over the class-1 sets that leave column n−1 in class 0,
		// from the observed labelling or, when that puts column n−1 in
		// class 1, from its complement.
		obs := labelPositions(d.Labels, 1)
		if d.Labels[d.N-1] == 1 {
			obs = labelPositions(d.Labels, 0)
		}
		return newDoor(d, d.N-1, obs)
	}
	g, err := NewComplete(d)
	if err != nil {
		return nil, err
	}
	g.total /= 2
	return g, nil
}

// Complete is the complete-enumeration generator.  Index 0 is the observed
// labelling; indices 1..Total()-1 enumerate every other distinct labelling
// exactly once, in combinatorial order with the observed labelling's slot
// skipped.
type Complete struct {
	design     *stat.Design
	k          kind
	total      int64
	obsRank    int64 // enumeration rank of the observed labelling
	blockPerms int64 // k! for block designs
}

// NewComplete builds a complete generator for the design, or an error
// wrapping ErrTooManyPermutations if the labelling count does not fit in
// int64.  Callers typically impose a far smaller practical limit on top.
func NewComplete(d *stat.Design) (*Complete, error) {
	total, ok := CompleteCount(d)
	if !ok {
		return nil, fmt.Errorf("%w (design %v with %d columns)", ErrTooManyPermutations, d.Test, d.N)
	}
	g := &Complete{design: d, k: designKind(d), total: total}
	switch g.k {
	case kindShuffle:
		if d.K == 2 {
			comb := labelPositions(d.Labels, 1)
			g.obsRank = CombinationRank(d.N, comb)
		} else {
			g.obsRank = MultisetRank(d.Labels)
		}
	case kindPairFlip:
		g.obsRank = 0 // mask 0 = no flips = observed
	case kindBlockShuffle:
		g.obsRank = 0 // all-identity digits = observed
		g.blockPerms, _ = Factorial(d.BlockSize)
	}
	return g, nil
}

// Total implements Generator.
func (g *Complete) Total() int64 { return g.total }

// Label implements Generator.
func (g *Complete) Label(idx int64, dst []int) {
	g.labelInto(idx, dst, nil)
}

// Labels implements Generator: the unrank scratch (combinadic buffer or
// per-block permutation) is allocated once for the whole batch instead of
// once per permutation.
func (g *Complete) Labels(start, n int64, dst []int) {
	scratch := g.newUnrankScratch()
	w := int64(g.design.N)
	for i := int64(0); i < n; i++ {
		g.labelInto(start+i, dst[i*w:(i+1)*w], scratch)
	}
}

// newUnrankScratch sizes the per-call working storage labelInto needs.
func (g *Complete) newUnrankScratch() []int {
	switch {
	case g.k == kindShuffle && g.design.K == 2:
		return make([]int, g.design.Counts[1])
	case g.k == kindBlockShuffle:
		return make([]int, g.design.BlockSize)
	default:
		return nil
	}
}

// labelInto unranks permutation idx into dst, using scratch when non-nil
// (allocating otherwise).
func (g *Complete) labelInto(idx int64, dst []int, scratch []int) {
	if idx < 0 || idx >= g.total {
		panic(fmt.Sprintf("perm: complete index %d out of range [0,%d)", idx, g.total))
	}
	d := g.design
	if idx == 0 {
		copy(dst, d.Labels)
		return
	}
	// Map the sequence index to an enumeration rank, skipping the
	// observed labelling's own slot so it appears exactly once (at 0).
	enum := idx - 1
	if enum >= g.obsRank {
		enum = idx
	}
	switch g.k {
	case kindShuffle:
		if d.K == 2 {
			comb := scratch
			if comb == nil {
				comb = make([]int, d.Counts[1])
			}
			CombinationUnrank(d.N, d.Counts[1], enum, comb)
			for i := range dst {
				dst[i] = 0
			}
			for _, c := range comb {
				dst[c] = 1
			}
		} else {
			MultisetUnrank(d.Counts, enum, dst)
		}
	case kindPairFlip:
		copy(dst, d.Labels)
		for j := 0; j < d.Pairs; j++ {
			if enum&(1<<uint(j)) != 0 {
				dst[2*j], dst[2*j+1] = dst[2*j+1], dst[2*j]
			}
		}
	case kindBlockShuffle:
		k := d.BlockSize
		p := scratch
		if p == nil {
			p = make([]int, k)
		}
		for b := 0; b < d.Blocks; b++ {
			digit := enum % g.blockPerms
			enum /= g.blockPerms
			PermutationUnrank(k, digit, p)
			for j := 0; j < k; j++ {
				dst[b*k+j] = d.Labels[b*k+p[j]]
			}
		}
	}
}

// labelPositions returns the sorted positions carrying label want.
func labelPositions(labels []int, want int) []int {
	var pos []int
	for i, l := range labels {
		if l == want {
			pos = append(pos, i)
		}
	}
	return pos
}

// Random is the on-the-fly Monte-Carlo generator (fixed.seed.sampling="y").
// Permutation idx is drawn from rng.Stream(seed, idx), so any rank can jump
// directly to its chunk: the skip of Figure 2 costs nothing.
type Random struct {
	design *stat.Design
	k      kind
	seed   uint64
	total  int64
}

// NewRandom returns a random generator producing B permutations in total
// (the observed labelling plus B-1 Monte-Carlo draws).
func NewRandom(d *stat.Design, seed uint64, B int64) *Random {
	return &Random{design: d, k: designKind(d), seed: seed, total: B}
}

// Total implements Generator.
func (g *Random) Total() int64 { return g.total }

// Label implements Generator.
func (g *Random) Label(idx int64, dst []int) {
	if idx < 0 || idx >= g.total {
		panic(fmt.Sprintf("perm: random index %d out of range [0,%d)", idx, g.total))
	}
	copy(dst, g.design.Labels)
	if idx == 0 {
		return
	}
	src := rng.Stream(g.seed, uint64(idx))
	drawInto(g.k, g.design, src, dst)
}

// Labels implements Generator: one stack Source is re-seeded per
// permutation instead of allocating a fresh generator for each stream.
func (g *Random) Labels(start, n int64, dst []int) {
	if start < 0 || n < 0 || start+n > g.total {
		panic(fmt.Sprintf("perm: random batch [%d,%d) out of range [0,%d)", start, start+n, g.total))
	}
	w := int64(g.design.N)
	var src rng.Source
	for i := int64(0); i < n; i++ {
		idx := start + i
		out := dst[i*w : (i+1)*w]
		copy(out, g.design.Labels)
		if idx == 0 {
			continue
		}
		src.SeedStream(g.seed, uint64(idx))
		drawInto(g.k, g.design, &src, out)
	}
}

// drawInto applies one random permutation action to dst in place.
func drawInto(k kind, d *stat.Design, src *rng.Source, dst []int) {
	switch k {
	case kindShuffle:
		src.Shuffle(d.N, func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	case kindPairFlip:
		for j := 0; j < d.Pairs; j++ {
			if src.Uint64n(2) == 1 {
				dst[2*j], dst[2*j+1] = dst[2*j+1], dst[2*j]
			}
		}
	case kindBlockShuffle:
		bs := d.BlockSize
		for b := 0; b < d.Blocks; b++ {
			off := b * bs
			src.Shuffle(bs, func(i, j int) {
				dst[off+i], dst[off+j] = dst[off+j], dst[off+i]
			})
		}
	}
}

// Stored is the in-memory generator (fixed.seed.sampling="n").  All draws
// come from a single sequential stream; a rank materialises only its chunk
// [lo, hi) by drawing and discarding the first lo-1 permutations, which is
// precisely the generator forwarding the paper describes.  Index 0 (the
// observed labelling) is always available regardless of the chunk.
type Stored struct {
	design *stat.Design
	total  int64
	lo, hi int64
	labels []int8 // (hi-lo) labellings, flattened row-major
}

// NewStored materialises permutations [lo, hi) of a B-permutation run
// drawn from the sequential stream identified by seed.  lo must be >= 1
// (index 0 is the observed labelling, never stored) unless lo == hi (an
// empty chunk).  Memory use is (hi-lo) * columns bytes.
func NewStored(d *stat.Design, seed uint64, B, lo, hi int64) *Stored {
	if lo < 0 || hi < lo || hi > B {
		panic(fmt.Sprintf("perm: stored chunk [%d,%d) out of range for B=%d", lo, hi, B))
	}
	g := &Stored{design: d, total: B, lo: lo, hi: hi}
	if lo == 0 {
		lo = 1 // index 0 is implicit; storage starts at permutation 1
		g.lo = 0
	}
	if hi <= lo {
		return g
	}
	if d.K > math.MaxInt8+1 { // the bytes hold class labels, each < d.K
		panic(fmt.Sprintf("perm: stored generator supports at most %d classes per label byte, design has %d", math.MaxInt8+1, d.K))
	}
	src := rng.New(seed)
	k := designKind(d)
	work := make([]int, d.N)
	// Draw and discard the prefix [1, lo): the sequential stream must be
	// advanced exactly as the serial run would have advanced it.
	for b := int64(1); b < lo; b++ {
		copy(work, d.Labels)
		drawInto(k, d, src, work)
	}
	g.labels = make([]int8, (hi-lo)*int64(d.N))
	for b := lo; b < hi; b++ {
		copy(work, d.Labels)
		drawInto(k, d, src, work)
		off := (b - lo) * int64(d.N)
		for i, v := range work {
			g.labels[off+int64(i)] = int8(v)
		}
	}
	return g
}

// Total implements Generator.
func (g *Stored) Total() int64 { return g.total }

// Lo and Hi report the materialised chunk bounds.
func (g *Stored) Lo() int64 { return g.lo }

// Hi reports the exclusive upper bound of the materialised chunk.
func (g *Stored) Hi() int64 { return g.hi }

// Labels implements Generator: a straight copy out of the materialised
// chunk.  Every index in [start, start+n) must be 0 or lie within the
// chunk, as for Label.
func (g *Stored) Labels(start, n int64, dst []int) {
	w := int64(g.design.N)
	for i := int64(0); i < n; i++ {
		g.Label(start+i, dst[i*w:(i+1)*w])
	}
}

// Label implements Generator.  idx must be 0 or lie within the chunk.
func (g *Stored) Label(idx int64, dst []int) {
	if idx == 0 {
		copy(dst, g.design.Labels)
		return
	}
	start := g.lo
	if start == 0 {
		start = 1
	}
	if idx < start || idx >= g.hi {
		panic(fmt.Sprintf("perm: stored index %d outside chunk [%d,%d)", idx, start, g.hi))
	}
	off := (idx - start) * int64(g.design.N)
	for i := 0; i < g.design.N; i++ {
		dst[i] = int(g.labels[off+int64(i)])
	}
}
