package core

import (
	"math"
	"testing"

	"sprint/internal/matrix"
)

// TestScrubNASkipsCopyWhenClean: the scan-first fast path must return the
// input matrix itself — same backing array, zero allocation — when no
// cell carries the NA code or a NaN.
func TestScrubNASkipsCopyWhenClean(t *testing.T) {
	m, err := matrix.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	out := scrubNA(m, DefaultNA)
	if &out.Data[0] != &m.Data[0] {
		t.Error("clean matrix was copied")
	}
	// NaN cells are already scrubbed, so they alone must not force a copy.
	m.Data[1] = math.NaN()
	out = scrubNA(m, DefaultNA)
	if &out.Data[0] != &m.Data[0] {
		t.Error("NaN-bearing, code-free matrix was copied")
	}
}

func TestScrubNAReplacesCode(t *testing.T) {
	m, err := matrix.FromRows([][]float64{{1, DefaultNA, 3}, {4, 5, math.NaN()}})
	if err != nil {
		t.Fatal(err)
	}
	out := scrubNA(m, DefaultNA)
	if &out.Data[0] == &m.Data[0] {
		t.Error("dirty matrix was not copied")
	}
	if m.At(0, 1) != DefaultNA {
		t.Error("scrubNA modified its input")
	}
	if !math.IsNaN(out.At(0, 1)) {
		t.Errorf("NA code not replaced: %v", out.At(0, 1))
	}
	if !math.IsNaN(out.At(1, 2)) {
		t.Error("NaN cell not preserved")
	}
	if out.At(0, 0) != 1 || out.At(1, 1) != 5 {
		t.Error("clean cells changed")
	}
}

// TestMatrixEntryPointsBitIdentical: the flat PMaxTMatrix and RunMatrix
// entry points must agree bit for bit at any rank count, and must not
// modify the caller's matrix.
func TestMatrixEntryPointsBitIdentical(t *testing.T) {
	x := synthMatrix(15, 12, 4, 17)
	lab := twoClass(6, 6)
	m, err := matrix.FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]float64(nil), m.Data...)
	opt := Options{B: 200, Seed: 11}

	rows, err := PMaxTMatrix(m, lab, 1, opt)
	if err != nil {
		t.Fatal(err)
	}

	pflat, err := PMaxTMatrix(m, lab, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "pmaxt-matrix", rows, pflat)

	rflat, err := RunMatrix(m, lab, opt, RunControl{NProcs: 2, Every: 50})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "run-matrix", rows, rflat)

	for i, v := range m.Data {
		if math.Float64bits(v) != math.Float64bits(orig[i]) {
			t.Fatalf("matrix entry point modified the caller's data at %d", i)
		}
	}
}
