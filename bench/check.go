package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/perm"
)

// This file checks outputs.  The warm-up job of every set-up is compared
// bit for bit with an in-process reference; every timed job gets
// structural checks.  A job failing either is a failed op.

// seqWindow is the sequential reference's window: sequential results do
// not depend on the rank count but do depend on the window, and 1000 is
// pmaxtd's -every default.
const seqWindow = 1000

// reference computes job i's result in-process on every CPU.  Exact jobs
// go through PMaxT — the paper's rank-parallel path over the in-process
// MPI substrate, which shares no orchestration with the daemon's windowed
// run.  Sequential jobs exist only as a supervised run; their result
// does not depend on the rank count.
func reference(in *inputs, i int) (*core.Result, error) {
	x := in.x
	if in.w.kind != opDatasetJob {
		x = in.variantMatrix(i)
	}
	opt := in.coreOptions(i)
	if opt.Mode == core.ModeSequential {
		return core.RunMatrix(x, in.jobLabels(i), opt, core.RunControl{Every: seqWindow})
	}
	return core.PMaxTMatrix(x, in.jobLabels(i), 0, opt)
}

// sameBits reports whether two vectors agree bit for bit, any NaN
// equalling any NaN (the wire form of NaN is null).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkBitwise compares a served result with the reference.
func checkBitwise(got *httpapi.ResultJSON, want *core.Result) error {
	switch {
	case got.B != want.B:
		return fmt.Errorf("b = %d, reference %d", got.B, want.B)
	case !sameBits(got.Stat, want.Stat):
		return fmt.Errorf("stat differs from the reference")
	case !sameBits(got.RawP, want.RawP):
		return fmt.Errorf("raw_p differs from the reference")
	case !sameBits(got.AdjP, want.AdjP):
		return fmt.Errorf("adj_p differs from the reference")
	case len(got.Order) != len(want.Order):
		return fmt.Errorf("order has %d entries, reference %d", len(got.Order), len(want.Order))
	}
	for i := range got.Order {
		if got.Order[i] != want.Order[i] {
			return fmt.Errorf("order[%d] = %d, reference %d", i, got.Order[i], want.Order[i])
		}
	}
	return nil
}

// expectedB returns the permutation count an exact job must report, or 0
// when the count is the engine's to decide (sequential mode).
func expectedB(w *workload) int64 {
	switch {
	case w.opt.Mode == core.ModeSequential:
		return 0
	case w.opt.B == 0:
		c, _ := perm.Binomial(w.cols, w.cols/2) // catalogue shapes are far from overflow
		return c
	default:
		return w.opt.B
	}
}

// checkStructure validates what every result must satisfy whatever its
// seed: shapes, the permutation count, p-values in (0, 1], adjusted not
// below raw, adjusted monotone along the significance order, and no
// answer from the result cache.
func checkStructure(w *workload, r *httpapi.ResultJSON) error {
	n := w.rows
	if len(r.Stat) != n || len(r.RawP) != n || len(r.AdjP) != n || len(r.Order) != n {
		return fmt.Errorf("result lengths %d/%d/%d/%d, want %d", len(r.Stat), len(r.RawP), len(r.AdjP), len(r.Order), n)
	}
	if r.CacheHit {
		return fmt.Errorf("result served from the cache")
	}
	if want := expectedB(w); want > 0 && r.B != want {
		return fmt.Errorf("b = %d, want %d", r.B, want)
	}
	if r.B < 1 || (w.opt.B > 0 && r.B > w.opt.B) {
		return fmt.Errorf("b = %d outside [1, %d]", r.B, w.opt.B)
	}
	seen := make([]bool, n)
	prev := 0.0
	for _, row := range r.Order {
		if row < 0 || row >= n || seen[row] {
			return fmt.Errorf("order is not a permutation of the rows (entry %d)", row)
		}
		seen[row] = true
		raw, adj := r.RawP[row], r.AdjP[row]
		if math.IsNaN(r.Stat[row]) {
			continue // no computable statistic: p-values are NaN by contract
		}
		if !(raw > 0 && raw <= 1) || !(adj > 0 && adj <= 1) {
			return fmt.Errorf("row %d: raw_p %v or adj_p %v outside (0, 1]", row, raw, adj)
		}
		if adj < raw {
			return fmt.Errorf("row %d: adj_p %v below raw_p %v", row, adj, raw)
		}
		if adj < prev {
			return fmt.Errorf("row %d: adj_p %v not monotone along the order (previous %v)", row, adj, prev)
		}
		prev = adj
	}
	return nil
}

// resultDigest is a content hash of everything the engine reports per
// row, used to compare cluster_exact's results with batch_exact's.
func resultDigest(r *httpapi.ResultJSON) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	canonNaN := math.Float64bits(math.NaN())
	putF := func(vs []float64) {
		put(uint64(len(vs)))
		for _, v := range vs {
			if math.IsNaN(v) {
				put(canonNaN)
			} else {
				put(math.Float64bits(v))
			}
		}
	}
	put(uint64(r.B))
	putF(r.Stat)
	putF(r.RawP)
	putF(r.AdjP)
	put(uint64(len(r.Order)))
	for _, o := range r.Order {
		put(uint64(o))
	}
	return hex.EncodeToString(h.Sum(nil))
}
