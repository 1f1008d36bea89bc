package matrix

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
)

// spbTestMatrix builds a deterministic rows×cols matrix with a sprinkle of
// NaN cells (every 7th element) and distinct values everywhere else.
func spbTestMatrix(rows, cols int) Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if i%7 == 3 {
			m.Data[i] = math.NaN()
		} else {
			m.Data[i] = float64(i)*1.25 - 3
		}
	}
	return m
}

func sameMatrixBits(t *testing.T, got, want Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.IsNaN(w) {
			// NaNs are canonicalised by the codec: any input NaN decodes
			// to the one bit pattern math.NaN() produces.
			if !math.IsNaN(g) {
				t.Fatalf("cell %d: got %v, want NaN", i, g)
			}
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("cell %d: got %x, want %x", i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestSPBRoundTrip: encode → decode must reproduce the matrix bitwise
// (modulo NaN canonicalisation), along with labels and names.
func TestSPBRoundTrip(t *testing.T) {
	m := spbTestMatrix(23, 11)
	labels := make([]int, 11)
	names := make([]string, 23)
	for j := range labels {
		labels[j] = j % 3
	}
	labels[2] = -1 // labels are signed on the wire
	for i := range names {
		names[i] = string(rune('a'+i%26)) + "gene"
	}
	names[5] = "" // empty names survive

	for _, layout := range []Layout{RowMajor, ColMajor} {
		var buf bytes.Buffer
		if err := Encode(&buf, m, labels, names, layout); err != nil {
			t.Fatal(err)
		}
		f, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrixBits(t, f.M, m)
		if len(f.Labels) != len(labels) {
			t.Fatalf("labels %v, want %v", f.Labels, labels)
		}
		for j := range labels {
			if f.Labels[j] != labels[j] {
				t.Fatalf("layout %d label %d: got %d, want %d", layout, j, f.Labels[j], labels[j])
			}
		}
		for i := range names {
			if f.Names[i] != names[i] {
				t.Fatalf("layout %d name %d: got %q, want %q", layout, i, f.Names[i], names[i])
			}
		}
	}
}

// TestSPBRoundTripBare: a matrix-only file (no labels, no names, no NaN)
// round-trips and omits every optional section.
func TestSPBRoundTripBare(t *testing.T) {
	m := New(5, 4)
	for i := range m.Data {
		m.Data[i] = float64(i) + 0.5
	}
	enc, err := EncodeBytes(m, nil, nil, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	if want := spbHeaderSize + 8*20 + 8; len(enc) != want {
		t.Fatalf("bare encoding is %d bytes, want %d (no optional sections)", len(enc), want)
	}
	f, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	sameMatrixBits(t, f.M, m)
	if f.Labels != nil || f.Names != nil {
		t.Fatalf("bare file decoded metadata: labels %v names %v", f.Labels, f.Names)
	}
}

// TestSPBZeroCopy: on an aligned buffer the decoded matrix must alias the
// input bytes — the zero-copy contract the dataset plane is built on.
func TestSPBZeroCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy aliasing requires a little-endian host")
	}
	m := spbTestMatrix(16, 8)
	enc, err := EncodeBytes(m, nil, nil, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !f.ZeroCopy {
		t.Fatal("aligned decode did not alias the buffer")
	}
	// Writing through the matrix must be visible in the raw buffer: proof
	// of aliasing without poking at pointers.
	f.M.Data[0] = 42.0
	payload, ok := aliasFloat64(enc[spbHeaderSize : spbHeaderSize+8*len(f.M.Data)])
	if !ok {
		t.Fatal("payload no longer aliasable")
	}
	found := false
	for _, v := range payload {
		if v == 42.0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("write through decoded matrix not visible in source buffer: not zero-copy")
	}
}

// TestSPBUnalignedFallback: a deliberately misaligned buffer must still
// decode correctly, just without aliasing.
func TestSPBUnalignedFallback(t *testing.T) {
	m := spbTestMatrix(9, 5)
	enc, err := EncodeBytes(m, nil, nil, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, len(enc)+1)
	copy(shifted[1:], enc)
	f, err := DecodeBytes(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	if f.ZeroCopy {
		t.Fatal("misaligned decode claimed zero-copy")
	}
	sameMatrixBits(t, f.M, m)
}

// TestSPBCorruption: every class of damage must be rejected, not decoded.
func TestSPBCorruption(t *testing.T) {
	m := spbTestMatrix(7, 6)
	labels := []int{0, 0, 0, 1, 1, 1}
	good, err := EncodeBytes(m, labels, nil, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		b := append([]byte(nil), good...)
		if _, err := DecodeBytes(mutate(b)); err == nil {
			t.Errorf("%s: corrupt stream decoded without error", name)
		}
	}
	check("flipped payload bit", func(b []byte) []byte { b[spbHeaderSize+11] ^= 0x40; return b })
	check("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	check("future version", func(b []byte) []byte { b[4] = 99; return b })
	check("unknown flag", func(b []byte) []byte { b[8] |= 0x80; return b })
	check("nonzero reserved", func(b []byte) []byte { b[12] = 1; return b })
	check("truncated", func(b []byte) []byte { return b[:len(b)-9] })
	check("oversized rows", func(b []byte) []byte { b[22] = 0xff; return b })
	check("trailing garbage", func(b []byte) []byte { return append(b, 0) })
	if _, err := DecodeBytes(nil); err == nil {
		t.Error("empty stream decoded")
	}
}

// TestSPBDigest64Stability pins the digest function: changing it would
// silently orphan every .spb file on disk, so the vectors are frozen here.
func TestSPBDigest64Stability(t *testing.T) {
	long := strings.Repeat("sprint-paper!", 11) // >32 bytes: exercises the lanes
	vectors := []struct {
		in   string
		want uint64
	}{
		{"", 0x26030f5b1bde63ca},
		{"a", 0x62466878f2e47aa6},
		{"sprint", 0xb13f23681093918e},
		{"0123456789abcdef", 0x812dbe0af6f69eaf},
		{long, 0xf0e5bd6f92808118},
	}
	for _, v := range vectors {
		if got := Digest64([]byte(v.in)); got != v.want {
			t.Errorf("Digest64(%q) = %#x, want %#x", v.in, got, v.want)
		}
	}
}

func BenchmarkSPBDecode(b *testing.B) {
	m := spbTestMatrix(6102, 76)
	enc, err := EncodeBytes(m, nil, nil, RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	work := make([]byte, len(enc))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The decode consumes its buffer (in-place transpose), so each
		// iteration pays one memcpy to refresh it — still part of what a
		// real server pays per request body.
		copy(work, enc)
		if _, err := DecodeBytes(work); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSPBHeaderOverflowRejected: a crafted header whose dimension product
// wraps 64-bit arithmetic must be rejected cleanly — the historical bug
// was a negative slice bound panic, remotely reachable via dataset upload.
func TestSPBHeaderOverflowRejected(t *testing.T) {
	m := spbTestMatrix(2, 2)
	enc, err := EncodeBytes(m, nil, nil, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	// rows = cols = 2^31-1: each passes the per-dimension bound, the
	// product wraps 8*n.  Digest recomputed so only the dimension check
	// can reject.
	for _, dims := range [][2]uint64{
		{1<<31 - 1, 1<<31 - 1},
		{1<<31 - 1, 3},
		{1 << 20, 1 << 20},
	} {
		b := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(b[16:24], dims[0])
		binary.LittleEndian.PutUint64(b[24:32], dims[1])
		binary.LittleEndian.PutUint64(b[len(b)-8:], Digest64(b[:len(b)-8]))
		if _, err := DecodeBytes(b); err == nil {
			t.Errorf("dims %dx%d decoded without error", dims[0], dims[1])
		}
	}
}

// TestReadSPBHeader: the metadata peek returns the shape without touching
// the payload, and rejects junk.
func TestReadSPBHeader(t *testing.T) {
	m := spbTestMatrix(37, 5)
	enc, err := EncodeBytes(m, nil, nil, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, err := ReadSPBHeader(bytes.NewReader(enc))
	if err != nil || rows != 37 || cols != 5 {
		t.Fatalf("header peek: %dx%d, %v", rows, cols, err)
	}
	if _, _, err := ReadSPBHeader(bytes.NewReader([]byte("not an spb stream at all..........."))); err == nil {
		t.Error("junk header accepted")
	}
}

// FuzzDecodeSPB drives DecodeBytes with arbitrary bytes, as they are and
// with a valid digest appended so the section checks see them, placed at
// every offset mod 8 so both the aliasing and the copying payload paths
// run.  Decoding never panics, and an accepted stream round-trips:
// Encode of the decoded file decodes to the same matrix, labels and
// names, and encoding that again gives the same bytes.
func FuzzDecodeSPB(f *testing.F) {
	m := spbTestMatrix(7, 6)
	bare, err := EncodeBytes(New(2, 3), nil, nil, RowMajor)
	if err != nil {
		f.Fatal(err)
	}
	full, err := EncodeBytes(m, []int{0, 0, 0, 1, 1, -1}, []string{"a", "", "c", "d", "e", "f", "g"}, ColMajor)
	if err != nil {
		f.Fatal(err)
	}
	for _, enc := range [][]byte{bare, full} {
		f.Add(enc, uint8(0))
		f.Add(enc, uint8(3))
	}
	// The every-byte-flip corpus of the bare stream.
	for off := range bare {
		mut := bytes.Clone(bare)
		mut[off] ^= 0x01
		f.Add(mut, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		withDigest := binary.LittleEndian.AppendUint64(bytes.Clone(data), Digest64(data))
		for _, in := range [][]byte{data, withDigest} {
			s := int(shift % 8)
			buf := make([]byte, s+len(in))[s:]
			copy(buf, in)
			got, err := DecodeBytes(buf)
			if err != nil {
				continue
			}
			if got.ZeroCopy && s != 0 {
				t.Fatalf("payload at offset %d mod 8 claimed zero-copy", s)
			}
			layout := ColMajor
			if binary.LittleEndian.Uint32(in[8:])&flagRowMajor != 0 {
				layout = RowMajor
			}
			enc, err := EncodeBytes(got.M, got.Labels, got.Names, layout)
			if err != nil {
				t.Fatalf("accepted stream does not re-encode: %v", err)
			}
			again, err := DecodeBytes(bytes.Clone(enc))
			if err != nil {
				t.Fatalf("re-encoded stream does not decode: %v", err)
			}
			sameMatrixBits(t, again.M, got.M)
			if !slices.Equal(again.Labels, got.Labels) || !slices.Equal(again.Names, got.Names) {
				t.Fatalf("labels/names %v %q, want %v %q", again.Labels, again.Names, got.Labels, got.Names)
			}
			if enc2, err := EncodeBytes(again.M, again.Labels, again.Names, layout); err != nil || !bytes.Equal(enc2, enc) {
				t.Fatalf("encoding is not a fixed point: %v", err)
			}
		}
	})
}

// referenceEncode is the per-cell statement of the spb layout: every
// cell appended one at a time, the digest over the finished buffer.  The
// streamed encoder must produce its bytes exactly.
func referenceEncode(m Matrix, labels []int, names []string, layout Layout) []byte {
	n := m.Rows * m.Cols
	var flags uint32
	var bitmap []byte
	for _, v := range m.Data {
		if math.IsNaN(v) {
			flags |= flagNABitmap
			bitmap = make([]byte, (n+7)/8)
			break
		}
	}
	if labels != nil {
		flags |= flagLabels
	}
	if names != nil {
		flags |= flagNames
	}
	if layout == RowMajor {
		flags |= flagRowMajor
	}
	buf := append([]byte(nil), spbMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, spbVersion)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Rows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Cols))
	k := 0
	cell := func(v float64) {
		if math.IsNaN(v) {
			bitmap[k/8] |= 1 << uint(k%8)
			v = 0
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		k++
	}
	if layout == RowMajor {
		for _, v := range m.Data {
			cell(v)
		}
	} else {
		for j := 0; j < m.Cols; j++ {
			for i := 0; i < m.Rows; i++ {
				cell(m.At(i, j))
			}
		}
	}
	buf = append(buf, bitmap...)
	for _, l := range labels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(l)))
	}
	for _, name := range names {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
	}
	return binary.LittleEndian.AppendUint64(buf, Digest64(buf))
}

// chunkWriter records every Write it receives, so a test sees the
// stream's parts.
type chunkWriter struct {
	buf   bytes.Buffer
	parts int
}

func (c *chunkWriter) Write(b []byte) (int, error) {
	c.parts++
	return c.buf.Write(b)
}

// TestSPBEncodeMatchesReference: Encode and EncodeBytes write the
// reference bytes for NaN in the first row, the last row, one middle
// row, every row and none, odd and even row counts, both layouts, with
// and without labels and names, whatever the NaN payload.
func TestSPBEncodeMatchesReference(t *testing.T) {
	nans := []float64{math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000abc)}
	type nanCase struct {
		name string
		rows func(rows int) []int
	}
	cases := []nanCase{
		{"none", func(int) []int { return nil }},
		{"first", func(int) []int { return []int{0} }},
		{"last", func(r int) []int { return []int{r - 1} }},
		{"middle", func(r int) []int { return []int{r / 2} }},
		{"every", func(r int) []int {
			out := make([]int, r)
			for i := range out {
				out[i] = i
			}
			return out
		}},
	}
	for _, shape := range [][2]int{{1, 1}, {1, 5}, {7, 3}, {8, 4}, {9, 2}, {33, 11}} {
		rows, cols := shape[0], shape[1]
		for _, c := range cases {
			m := New(rows, cols)
			for i := range m.Data {
				m.Data[i] = float64(i)*0.75 - 2
			}
			for q, i := range c.rows(rows) {
				m.Data[i*cols+(i+q)%cols] = nans[q%len(nans)]
			}
			labels := make([]int, cols)
			for j := range labels {
				labels[j] = j%2 - 1
			}
			names := make([]string, rows)
			for i := range names {
				names[i] = strings.Repeat("g", i%4)
			}
			for _, layout := range []Layout{RowMajor, ColMajor} {
				for _, meta := range []bool{false, true} {
					l, nm := []int(nil), []string(nil)
					if meta {
						l, nm = labels, names
					}
					want := referenceEncode(m, l, nm, layout)
					got, err := EncodeBytes(m, l, nm, layout)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%dx%d NaN %s layout %d meta %v: EncodeBytes differs from the reference", rows, cols, c.name, layout, meta)
					}
					var w chunkWriter
					if err := Encode(&w, m, l, nm, layout); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(w.buf.Bytes(), want) {
						t.Fatalf("%dx%d NaN %s layout %d meta %v: Encode differs from the reference", rows, cols, c.name, layout, meta)
					}
					if hostLittleEndian && layout == RowMajor && c.name == "none" && !meta && w.parts != 3 {
						t.Errorf("%dx%d NaN-free row-major stream took %d writes, want header, payload, trailer", rows, cols, w.parts)
					}
				}
			}
		}
	}
}

// FuzzDigest64Stream: bytes written to the streaming state in arbitrary
// splits hash as the one-shot Digest64 of the whole.
func FuzzDigest64Stream(f *testing.F) {
	f.Add([]byte(""), []byte{})
	f.Add([]byte("abc"), []byte{1})
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 9), []byte{31, 1, 33, 7})
	f.Add(bytes.Repeat([]byte{0xff}, 200), []byte{32, 0, 64, 5, 96})
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		d := newDigest64()
		rest := data
		for _, s := range splits {
			k := min(int(s), len(rest))
			d.write(rest[:k])
			rest = rest[k:]
		}
		d.write(rest)
		if got, want := d.sum64(), Digest64(data); got != want {
			t.Fatalf("streamed %#x, one-shot %#x (len %d, splits %v)", got, want, len(data), splits)
		}
	})
}
