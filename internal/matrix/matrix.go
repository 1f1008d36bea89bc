// Package matrix provides the dense-matrix plumbing around pmaxT's input
// handling: the flat row-major Matrix type the whole statistics engine
// computes on, and the paper's future-work item 2: "The current
// implementation performs an array transposition on the input dataset.
// For this transformation, a new array is allocated.  Algorithms for
// in-place non-square array transposition exist that are able to perform
// this step without the need for additional memory."
//
// R stores matrices column-major; the C kernel wants gene rows contiguous.
// TransposeInPlace implements the cycle-following algorithm for in-place
// transposition of a rows×cols matrix stored flat, using O(1) extra memory
// beyond a visited bitmap of ceil(n/8) bytes (the textbook compromise; a
// truly bitmap-free variant exists but is dramatically slower for no
// benefit here).
package matrix

import "fmt"

// Matrix is a dense rows×cols matrix stored flat in row-major order: one
// contiguous allocation, gene rows adjacent in memory, exactly the layout
// the paper's C kernel iterates over.  The zero value is an empty matrix.
//
// Data is exported so that transport layers (broadcast, hashing, wire
// encoding) can treat the matrix as a single contiguous buffer; all
// element access in compute code should go through Row for clarity.
type Matrix struct {
	Data []float64 // len == Rows*Cols, row-major
	Rows int
	Cols int
}

// New returns a zeroed rows×cols matrix in one allocation.
func New(rows, cols int) Matrix {
	return Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// FromRows flattens a row-per-slice matrix into contiguous storage.  It is
// the bridge from the legacy [][]float64 surface into the flat engine and
// fails on ragged or empty input rather than guessing a shape.
func FromRows(x [][]float64) (Matrix, error) {
	if len(x) == 0 {
		return Matrix{}, fmt.Errorf("matrix: empty matrix")
	}
	cols := len(x[0])
	if cols == 0 {
		return Matrix{}, fmt.Errorf("matrix: row 0 has no columns")
	}
	m := New(len(x), cols)
	for i, row := range x {
		if len(row) != cols {
			return Matrix{}, fmt.Errorf("matrix: row %d has %d columns, row 0 has %d", i, len(row), cols)
		}
		copy(m.Data[i*cols:], row)
	}
	return m, nil
}

// IsShape reports whether n cells make a rows×cols matrix with rows and
// cols positive.  It never forms the product, so a shape whose product
// wraps the int range is refused, not matched against a wrapped count.
func IsShape(n, rows, cols int) bool {
	return rows > 0 && cols > 0 && n%rows == 0 && n/rows == cols
}

// Row returns row i as a slice view into the flat storage.  The view's
// capacity is clipped to the row, so an append cannot silently overwrite
// the next row.
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// At returns the element at row i, column j.
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// IsEmpty reports whether the matrix has no elements.
func (m Matrix) IsEmpty() bool { return m.Rows == 0 || m.Cols == 0 }

// Clone returns a deep copy sharing no storage with m.
func (m Matrix) Clone() Matrix {
	return Matrix{Data: append([]float64(nil), m.Data...), Rows: m.Rows, Cols: m.Cols}
}

// RowsView returns the legacy [][]float64 form as views into the flat
// storage: the row headers are newly allocated, the cells are shared.
func (m Matrix) RowsView() [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// Transpose returns a new flat array holding the transpose of src, where
// src is rows×cols in row-major order.  This is the allocating baseline
// the paper's current implementation uses.  It takes eight source rows
// at a time and writes their cells of each column as one contiguous run
// of eight in the destination — a cache line, where a row at a time
// writes one cell per destination row; the rows past the last whole
// tile go one at a time.
func Transpose(src []float64, rows, cols int) []float64 {
	if len(src) != rows*cols {
		panic(fmt.Sprintf("matrix: %d elements for %dx%d", len(src), rows, cols))
	}
	dst := make([]float64, len(src))
	const tile = 8
	r := 0
	for ; r+tile <= rows; r += tile {
		s := src[r*cols : (r+tile)*cols]
		s0, s1, s2, s3 := s[:cols], s[cols:2*cols], s[2*cols:3*cols], s[3*cols:4*cols]
		s4, s5, s6, s7 := s[4*cols:5*cols], s[5*cols:6*cols], s[6*cols:7*cols], s[7*cols:]
		for c := range s0 {
			d := dst[c*rows+r:][:tile]
			d[0], d[1], d[2], d[3] = s0[c], s1[c], s2[c], s3[c]
			d[4], d[5], d[6], d[7] = s4[c], s5[c], s6[c], s7[c]
		}
	}
	for ; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
	return dst
}

// TransposeInPlace transposes a rows×cols row-major flat matrix in place
// using cycle following: every element belongs to a permutation cycle of
// the index mapping i -> (i*rows) mod (rows*cols-1); each cycle is rotated
// once.  After the call the array is cols×rows row-major (equivalently,
// the original matrix in column-major order).  Memory overhead is one bit
// per element.
func TransposeInPlace(a []float64, rows, cols int) {
	n := rows * cols
	if len(a) != n {
		panic(fmt.Sprintf("matrix: %d elements for %dx%d", len(a), rows, cols))
	}
	if n <= 1 || rows == 1 || cols == 1 {
		return // vector shapes are their own transpose in flat storage
	}
	m := n - 1
	visited := make([]byte, (n+7)/8)
	seen := func(i int) bool { return visited[i/8]&(1<<uint(i%8)) != 0 }
	mark := func(i int) { visited[i/8] |= 1 << uint(i%8) }
	// Index 0 and n-1 are fixed points.
	mark(0)
	mark(n - 1)
	for start := 1; start < m; start++ {
		if seen(start) {
			continue
		}
		// Rotate the cycle beginning at start.  The element at position
		// i must move to position (i*rows) mod m.
		carry := a[start]
		i := start
		for {
			next := (i * rows) % m
			a[next], carry = carry, a[next]
			mark(next)
			i = next
			if i == start {
				break
			}
		}
	}
}

// FromColumnMajor converts a column-major flat matrix (R's layout: rows
// genes × cols samples, stored column by column) into the row-major Matrix
// the analysis consumes, transposing in place so that no second matrix is
// allocated.  The input slice is consumed: it backs the returned Matrix.
func FromColumnMajor(flat []float64, rows, cols int) Matrix {
	if len(flat) != rows*cols {
		panic(fmt.Sprintf("matrix: %d elements for %dx%d", len(flat), rows, cols))
	}
	// Column-major rows×cols is identical to row-major cols×rows; an
	// in-place transpose of that yields row-major rows×cols.
	TransposeInPlace(flat, cols, rows)
	return Matrix{Data: flat, Rows: rows, Cols: cols}
}
