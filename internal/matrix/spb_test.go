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
