package stat

import (
	"cmp"
	"math"
	"slices"
)

// Ranks replaces the non-missing entries of dst with their mid-ranks (ties
// receive the average of the ranks they span, the standard treatment for
// rank statistics).  NaN entries remain NaN and do not consume ranks.  The
// transform is applied in place; with a scratch of len(dst) capacity it
// allocates nothing.
//
// mt.maxT applies this transform once per row: ranks depend only on the
// data values, not on the labelling, so permutations reuse them.  The same
// transform implements the nonpara="y" option for the t- and F-family
// statistics.
func Ranks(dst []float64, scratch []int) {
	n := 0
	for _, v := range dst {
		if !math.IsNaN(v) {
			n++
		}
	}
	if n == 0 {
		return
	}
	if cap(scratch) < n {
		scratch = make([]int, n)
	}
	idx := scratch[:0]
	for j, v := range dst {
		if !math.IsNaN(v) {
			idx = append(idx, j)
		}
	}
	// Mid-ranks do not depend on the order inside a run of equal values, so
	// any sort by value gives the same output.  Rows are short (one entry
	// per sample): an insertion sort in place beats a general sort's set-up.
	if n <= 32 {
		for a := 1; a < n; a++ {
			j, b := idx[a], a
			for ; b > 0 && dst[idx[b-1]] > dst[j]; b-- {
				idx[b] = idx[b-1]
			}
			idx[b] = j
		}
	} else {
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(dst[a], dst[b]) })
	}
	// Assign mid-ranks over runs of equal values.
	for i := 0; i < n; {
		j := i + 1
		for j < n && dst[idx[j]] == dst[idx[i]] {
			j++
		}
		// Ranks are 1-based: positions i..j-1 share rank (i+1+j)/2.
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			// Deferred write would clobber comparisons; values in the
			// run are equal so overwriting is safe only after the run
			// is delimited, which it is here.
			dst[idx[k]] = mid
		}
		i = j
	}
}
