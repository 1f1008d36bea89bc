package matrix

import (
	"testing"
	"testing/quick"
)

func seqMatrix(rows, cols int) []float64 {
	a := make([]float64, rows*cols)
	for i := range a {
		a[i] = float64(i)
	}
	return a
}

func TestTransposeSmall(t *testing.T) {
	// 2x3 row-major: [0 1 2; 3 4 5] -> 3x2: [0 3; 1 4; 2 5].
	src := seqMatrix(2, 3)
	got := Transpose(src, 2, 3)
	want := []float64{0, 3, 1, 4, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Transpose = %v, want %v", got, want)
		}
	}
}

// TestTransposeMatchesNaive holds the tiled Transpose to the plain loop
// on ragged shapes: rows off the 8-row tile, single rows and columns, and
// empty matrices.
func TestTransposeMatchesNaive(t *testing.T) {
	shapes := []struct{ r, c int }{
		{0, 5}, {5, 0}, {1, 1}, {1, 9}, {9, 1}, {1, 76}, {76, 1}, {7, 3}, {8, 3},
		{9, 3}, {15, 4}, {16, 4}, {17, 5}, {23, 76}, {64, 2}, {6102 % 97, 76},
	}
	for _, s := range shapes {
		src := seqMatrix(s.r, s.c)
		want := make([]float64, len(src))
		for r := 0; r < s.r; r++ {
			for c := 0; c < s.c; c++ {
				want[c*s.r+r] = src[r*s.c+c]
			}
		}
		got := Transpose(src, s.r, s.c)
		if len(got) != len(want) {
			t.Fatalf("%dx%d: %d cells, want %d", s.r, s.c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d: Transpose[%d] = %v, want %v", s.r, s.c, i, got[i], want[i])
			}
		}
	}
}

func TestTransposeInPlaceMatchesAllocating(t *testing.T) {
	shapes := []struct{ r, c int }{
		{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 3}, {3, 2}, {4, 4},
		{5, 3}, {3, 5}, {16, 9}, {76, 61}, {100, 100},
	}
	for _, s := range shapes {
		src := seqMatrix(s.r, s.c)
		want := Transpose(src, s.r, s.c)
		got := seqMatrix(s.r, s.c)
		TransposeInPlace(got, s.r, s.c)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d: in-place[%d] = %v, want %v", s.r, s.c, i, got[i], want[i])
			}
		}
	}
}

func TestTransposeInPlaceInvolution(t *testing.T) {
	// Transposing twice (with swapped dims) restores the original.
	orig := seqMatrix(6, 13)
	a := append([]float64(nil), orig...)
	TransposeInPlace(a, 6, 13)
	TransposeInPlace(a, 13, 6)
	for i := range orig {
		if a[i] != orig[i] {
			t.Fatalf("double transpose differs at %d", i)
		}
	}
}

func TestTransposePanicsOnBadShape(t *testing.T) {
	for _, f := range []func(){
		func() { Transpose(make([]float64, 5), 2, 3) },
		func() { TransposeInPlace(make([]float64, 5), 2, 3) },
		func() { FromColumnMajor(make([]float64, 5), 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad shape did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFromColumnMajor(t *testing.T) {
	// Column-major 2x3 (2 genes, 3 samples): columns are (g0s0,g1s0),
	// (g0s1,g1s1), (g0s2,g1s2).
	flat := []float64{
		10, 20, // sample 0
		11, 21, // sample 1
		12, 22, // sample 2
	}
	m := FromColumnMajor(flat, 2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	want := [][]float64{{10, 11, 12}, {20, 21, 22}}
	for r := range want {
		for c := range want[r] {
			if m.At(r, c) != want[r][c] {
				t.Fatalf("matrix = %v, want %v", m.Data, want)
			}
		}
	}
	if &m.Data[0] != &flat[0] {
		t.Error("FromColumnMajor allocated a second matrix")
	}
}

func TestFromRows(t *testing.T) {
	x := [][]float64{{1, 2, 3}, {4, 5, 6}}
	m, err := FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	for i := range x {
		for j := range x[i] {
			if m.At(i, j) != x[i][j] {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, m.At(i, j), x[i][j])
			}
		}
	}
	// Storage is a copy, not a view.
	x[0][0] = 99
	if m.At(0, 0) == 99 {
		t.Error("FromRows shares storage with its input")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows accepted an empty matrix")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("FromRows accepted a ragged matrix")
	}
}

func TestRowsViewSharesStorage(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	rows := m.RowsView()
	rows[1][0] = 42
	if m.At(1, 0) != 42 {
		t.Error("RowsView did not alias the flat storage")
	}
	// Appending to a row view must not clobber the next row.
	_ = append(rows[0], 99)
	if m.At(1, 0) != 42 {
		t.Error("append through a row view overwrote the next row")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Data[0] = 77
	if m.Data[0] == 77 {
		t.Error("Clone shares storage")
	}
}

func TestQuickInPlaceEqualsAllocating(t *testing.T) {
	f := func(r8, c8 uint8) bool {
		r := int(r8%40) + 1
		c := int(c8%40) + 1
		src := seqMatrix(r, c)
		want := Transpose(src, r, c)
		got := seqMatrix(r, c)
		TransposeInPlace(got, r, c)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransposeAllocating6102x76(b *testing.B) {
	src := seqMatrix(6102, 76)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Transpose(src, 6102, 76)
	}
}

// BenchmarkTransposeSamples76x6102 is the shape an inline x_flat job
// transposes: samples × genes in, genes × samples out.
func BenchmarkTransposeSamples76x6102(b *testing.B) {
	src := seqMatrix(76, 6102)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Transpose(src, 76, 6102)
	}
}

func BenchmarkTransposeInPlace6102x76(b *testing.B) {
	src := seqMatrix(6102, 76)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TransposeInPlace(src, 6102, 76)
		TransposeInPlace(src, 76, 6102)
	}
}
