// spb.go implements the SPRINT binary matrix format (".spb"): the compact
// columnar interchange encoding of an expression matrix, built so that the
// serving path never re-parses text.  A file is one header, one contiguous
// float64 payload in either cell order — row-major (the engine's layout;
// what every Go-side producer writes) or column-major (R's native memory
// layout, so an R client can dump its matrix verbatim) — an optional
// missing-value bitmap, optional per-column class labels and per-row
// names, and a trailing content digest:
//
//	offset  size            field
//	0       4               magic "SPB1"
//	4       4               version (little-endian u32, currently 1)
//	8       4               section flags (u32): 1 = NA bitmap,
//	                        2 = labels, 4 = row names,
//	                        8 = payload is row-major (absent = column-major)
//	12      4               reserved, must be zero (pads the payload to an
//	                        8-byte file offset for zero-copy aliasing)
//	16      8               rows (u64)
//	24      8               cols (u64)
//	32      8*rows*cols     payload: float64 LE, in the flagged cell order
//	...     ceil(n/8)       NA bitmap, bit k = payload cell k missing
//	...     4*cols          class labels (i32 LE)
//	...     variable        row names: per row a u16 LE length + bytes
//	end-8   8               Digest64 of every preceding byte (u64 LE)
//
// Decoding is zero-copy where the platform allows it: on little-endian
// hosts, when the caller's buffer is 8-byte aligned, the float64 payload
// is aliased directly (no element copy); a column-major payload is then
// converted to the engine's row-major layout by the in-place
// transposition this package already provides, and a row-major payload
// IS the matrix with no further work.  Missing cells are encoded as a
// zero payload plus a bitmap bit, so the payload hashes identically
// however the producer spelled its NaNs.
package matrix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"unsafe"
)

// Magic identifies an spb stream; the trailing byte versions the layout
// generation, the header version field the revision.
var spbMagic = [4]byte{'S', 'P', 'B', '1'}

const (
	spbVersion    = 1
	spbHeaderSize = 32

	flagNABitmap = 1 << 0
	flagLabels   = 1 << 1
	flagNames    = 1 << 2
	flagRowMajor = 1 << 3
	flagKnown    = flagNABitmap | flagLabels | flagNames | flagRowMajor

	// spbMaxDim bounds each dimension and spbMaxCells their product.
	// The cell bound is derived from the PLATFORM's int: every byte-size
	// computation a decode performs is at most 12.125 bytes per cell
	// (8 payload + 1/8 bitmap + 4 labels when cols == cells) plus the
	// fixed header, so capping cells at (MaxInt-64)/13 keeps all of that
	// arithmetic — and the slice bounds derived from it — overflow-free
	// on 32-bit builds too, where a naive 2^31-cell cap would let 8*n
	// wrap negative and bypass the length check.
	spbMaxDim   = 1 << 31
	spbMaxCells = (math.MaxInt - 64) / 13
)

// File is a decoded spb stream: the matrix in the engine's row-major
// layout, plus the optional design metadata the file carried.
type File struct {
	// M is the rows×cols matrix, row-major.  When ZeroCopy is true its
	// Data aliases (a transposed-in-place view of) the decode buffer.
	M Matrix
	// Labels holds the per-column class labels, nil when the file carried
	// none.
	Labels []int
	// Names holds the per-row names, nil when the file carried none.
	Names []string
	// ZeroCopy reports that M.Data aliases the caller's buffer rather
	// than a fresh allocation (little-endian host, 8-byte-aligned buffer).
	ZeroCopy bool
}

// hostLittleEndian reports whether float64 payloads can be aliased without
// byte swapping.  Big-endian hosts fall back to an element-wise decode.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Digest64 is the format's integrity hash: an xxhash-style 64-bit
// multiply-rotate hash.  Four independent lanes consume 32-byte blocks —
// breaking the serial multiply dependency so the hash keeps up with
// memory bandwidth on multi-megabyte payloads — then the lanes fold into
// one accumulator that absorbs the tail and a finalising avalanche.  It
// guards against torn writes and bit rot, not adversaries — content
// addressing in the dataset registry uses SHA-256 on top.
func Digest64(b []byte) uint64 {
	d := newDigest64()
	d.write(b)
	return d.sum64()
}

const (
	digestPrime1 = 0x9e3779b185ebca87
	digestPrime2 = 0xc2b2ae3d27d4eb4f
	digestPrime3 = 0x165667b19e3779f9
)

// digest64 is Digest64's streaming state: bytes written in any split
// hash as the one-shot Digest64 of their concatenation.  Whole 32-byte
// blocks go straight through the four lanes; a partial block waits in
// buf for the next write or for sum64, which absorbs it as the tail.
type digest64 struct {
	l0, l1, l2, l3 uint64
	n              uint64 // bytes written
	buf            [32]byte
	nbuf           int
}

func newDigest64() digest64 {
	return digest64{
		l0: digestPrime3,
		l1: digestPrime3 ^ digestPrime1,
		l2: digestPrime3 ^ digestPrime2,
		l3: digestPrime3 ^ 0x27d4eb2f165667c5,
	}
}

// write absorbs b.
func (d *digest64) write(b []byte) {
	d.n += uint64(len(b))
	if d.nbuf > 0 {
		k := copy(d.buf[d.nbuf:], b)
		d.nbuf += k
		b = b[k:]
		if d.nbuf < len(d.buf) {
			return
		}
		d.blocks(d.buf[:])
		d.nbuf = 0
	}
	d.nbuf = copy(d.buf[:], d.blocks(b))
}

// blocks runs every whole 32-byte block of b through the lanes and
// returns the remainder.
func (d *digest64) blocks(b []byte) []byte {
	l0, l1, l2, l3 := d.l0, d.l1, d.l2, d.l3
	for len(b) >= 32 {
		l0 = bits.RotateLeft64(l0^binary.LittleEndian.Uint64(b)*digestPrime2, 31) * digestPrime1
		l1 = bits.RotateLeft64(l1^binary.LittleEndian.Uint64(b[8:])*digestPrime2, 31) * digestPrime1
		l2 = bits.RotateLeft64(l2^binary.LittleEndian.Uint64(b[16:])*digestPrime2, 31) * digestPrime1
		l3 = bits.RotateLeft64(l3^binary.LittleEndian.Uint64(b[24:])*digestPrime2, 31) * digestPrime1
		b = b[32:]
	}
	d.l0, d.l1, d.l2, d.l3 = l0, l1, l2, l3
	return b
}

// sum64 folds the lanes, absorbs the pending tail and avalanches.  It
// does not change the state.
func (d *digest64) sum64() uint64 {
	h := bits.RotateLeft64(d.l0, 1) ^ bits.RotateLeft64(d.l1, 7) ^
		bits.RotateLeft64(d.l2, 12) ^ bits.RotateLeft64(d.l3, 18) ^ d.n*digestPrime3
	b := d.buf[:d.nbuf]
	for len(b) >= 8 {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(b)*digestPrime2, 31) * digestPrime1
		b = b[8:]
	}
	for _, c := range b {
		h = bits.RotateLeft64(h^uint64(c)*digestPrime1, 11) * digestPrime2
	}
	h ^= h >> 33
	h *= digestPrime2
	h ^= h >> 29
	h *= digestPrime3
	h ^= h >> 32
	return h
}

// EncodedSize returns the byte size of the spb encoding of an
// rows×cols matrix with the given optional sections.
func encodedSize(rows, cols int, hasNA bool, labels []int, names []string) int {
	n := rows * cols
	size := spbHeaderSize + 8*n + 8 // header + payload + digest
	if hasNA {
		size += (n + 7) / 8
	}
	if labels != nil {
		size += 4 * cols
	}
	for _, name := range names {
		size += 2 + len(name)
	}
	return size
}

// Layout selects the payload cell order of an spb encoding.
type Layout int

const (
	// RowMajor stores the payload in the engine's native layout: decode
	// is digest check + alias, no element ever moves.  The layout every
	// Go-side producer (datagen, the registry's disk mirror) writes.
	RowMajor Layout = iota
	// ColMajor stores the payload column by column — R's native memory
	// layout, so an R client can dump its matrix verbatim.  Decode
	// transposes in place (no extra allocation, but a full pass).
	ColMajor
)

// EncodeBytes serialises m (row-major, the engine layout) with optional
// labels (len == m.Cols) and names (len == m.Rows) into one spb buffer,
// with the payload in the requested cell order: Encode writing into a
// buffer of the encoding's exact size.
func EncodeBytes(m Matrix, labels []int, names []string, layout Layout) ([]byte, error) {
	if err := checkEncodable(m, labels, names); err != nil {
		return nil, err
	}
	hasNA := hasNaN(m.Data)
	buf := bytes.NewBuffer(make([]byte, 0, encodedSize(m.Rows, m.Cols, hasNA, labels, names)))
	if err := encode(buf, m, labels, names, layout, hasNA); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode streams the spb encoding of m to w: the header, the payload,
// then the optional sections and the digest trailer, with no buffer the
// size of the matrix.  On a little-endian host a run of NaN-free rows of
// a row-major payload is written straight from m's memory; every other
// row (or, for ColMajor, column) goes through one line-sized scratch.
// NaN cells are written as bitmap bits over a zero payload, so the
// encoded bytes are independent of the producer's NaN bit patterns.
func Encode(w io.Writer, m Matrix, labels []int, names []string, layout Layout) error {
	if err := checkEncodable(m, labels, names); err != nil {
		return err
	}
	return encode(w, m, labels, names, layout, hasNaN(m.Data))
}

// checkEncodable rejects what the format cannot carry.
func checkEncodable(m Matrix, labels []int, names []string) error {
	if m.IsEmpty() {
		return fmt.Errorf("matrix: spb: empty matrix")
	}
	if m.Rows >= spbMaxDim || m.Cols >= spbMaxDim || int64(m.Rows)*int64(m.Cols) > spbMaxCells {
		return fmt.Errorf("matrix: spb: dimensions %dx%d exceed the format limit", m.Rows, m.Cols)
	}
	if len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("matrix: spb: %d elements for %dx%d", len(m.Data), m.Rows, m.Cols)
	}
	if labels != nil && len(labels) != m.Cols {
		return fmt.Errorf("matrix: spb: %d labels for %d columns", len(labels), m.Cols)
	}
	if names != nil && len(names) != m.Rows {
		return fmt.Errorf("matrix: spb: %d names for %d rows", len(names), m.Rows)
	}
	for i, name := range names {
		if len(name) > math.MaxUint16 {
			return fmt.Errorf("matrix: spb: name %d is %d bytes, limit %d", i, len(name), math.MaxUint16)
		}
	}
	return nil
}

func hasNaN(data []float64) bool {
	for _, v := range data {
		if v != v {
			return true
		}
	}
	return false
}

// spbWriter writes to w and the trailer's digest at once, keeping the
// first write error.
type spbWriter struct {
	w   io.Writer
	d   digest64
	err error
}

func (s *spbWriter) write(b []byte) {
	if s.err != nil || len(b) == 0 {
		return
	}
	s.d.write(b)
	_, s.err = s.w.Write(b)
}

// encode is Encode over a checked matrix whose NaN presence is known.
func encode(w io.Writer, m Matrix, labels []int, names []string, layout Layout, hasNA bool) error {
	var flags uint32
	if hasNA {
		flags |= flagNABitmap
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
	sw := spbWriter{w: w, d: newDigest64()}
	var hdr [spbHeaderSize]byte
	copy(hdr[:], spbMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], spbVersion)
	binary.LittleEndian.PutUint32(hdr[8:], flags)
	// hdr[12:16] stays zero: reserved / payload padding.
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(m.Cols))
	sw.write(hdr[:])

	// Payload in the chosen cell order, one line (a row, or a column for
	// ColMajor) at a time; NaN cells write zero here and a bitmap bit
	// below (bit k = payload cell k, same order).
	n := m.Rows * m.Cols
	var bitmap []byte
	if hasNA {
		bitmap = make([]byte, (n+7)/8)
	}
	lines, stride, step := m.Rows, m.Cols, 1 // cell t of line i is Data[i*stride + t*step]
	if layout != RowMajor {
		lines, stride, step = m.Cols, 1, m.Cols
	}
	lineLen := n / lines
	var scratch []byte
	for i, k := 0, 0; i < lines; {
		if layout == RowMajor && hostLittleEndian {
			// A NaN-free run of rows leaves from m's own memory.
			end := i
			for end < lines && !(hasNA && hasNaN(m.Row(end))) {
				end++
			}
			if end > i {
				b, _ := LittleEndianBytes(m.Data[i*stride : end*stride])
				sw.write(b)
				k += (end - i) * lineLen
				i = end
				continue
			}
		}
		if scratch == nil {
			scratch = make([]byte, 8*lineLen)
		}
		for t := 0; t < lineLen; t, k = t+1, k+1 {
			v := m.Data[i*stride+t*step]
			if v != v {
				bitmap[k/8] |= 1 << uint(k%8)
				v = 0
			}
			binary.LittleEndian.PutUint64(scratch[8*t:], math.Float64bits(v))
		}
		sw.write(scratch)
		i++
	}
	sw.write(bitmap)

	var tail []byte
	for _, l := range labels {
		tail = binary.LittleEndian.AppendUint32(tail, uint32(int32(l)))
	}
	for _, name := range names {
		tail = binary.LittleEndian.AppendUint16(tail, uint16(len(name)))
		tail = append(tail, name...)
	}
	sw.write(tail)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], sw.d.sum64())
	sw.write(trailer[:])
	return sw.err
}

// Decode reads one complete spb stream from r.  The whole stream is read
// into memory and decoded with DecodeBytes, so the matrix aliases the read
// buffer — one allocation for the file, zero for the payload.
func Decode(r io.Reader) (*File, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("matrix: spb: reading: %w", err)
	}
	return DecodeBytes(buf)
}

// DecodeBytes decodes an spb buffer.  The buffer is CONSUMED: on aligned
// little-endian decodes the returned matrix aliases buf's payload bytes
// (transposed in place to row-major), so the caller must not reuse buf.
// Unaligned or big-endian buffers fall back to an element-wise copy.
func DecodeBytes(buf []byte) (*File, error) {
	if len(buf) < spbHeaderSize+8 {
		return nil, fmt.Errorf("matrix: spb: %d bytes is shorter than any valid stream", len(buf))
	}
	if [4]byte(buf[0:4]) != spbMagic {
		return nil, fmt.Errorf("matrix: spb: bad magic %q", buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != spbVersion {
		return nil, fmt.Errorf("matrix: spb: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint32(buf[8:12])
	if flags&^uint32(flagKnown) != 0 {
		return nil, fmt.Errorf("matrix: spb: unknown section flags %#x", flags&^uint32(flagKnown))
	}
	if rsv := binary.LittleEndian.Uint32(buf[12:16]); rsv != 0 {
		return nil, fmt.Errorf("matrix: spb: reserved field is %#x, want 0", rsv)
	}
	rows64 := binary.LittleEndian.Uint64(buf[16:24])
	cols64 := binary.LittleEndian.Uint64(buf[24:32])
	if rows64 == 0 || cols64 == 0 || rows64 >= spbMaxDim || cols64 >= spbMaxDim {
		return nil, fmt.Errorf("matrix: spb: dimensions %dx%d out of range", rows64, cols64)
	}
	// The per-dimension guards make the uint64 product exact (< 2^62);
	// the cell bound keeps every later int computation (8*n, offsets)
	// far from overflow on any architecture.
	if rows64*cols64 > spbMaxCells {
		return nil, fmt.Errorf("matrix: spb: %dx%d exceeds the %d-cell format limit", rows64, cols64, spbMaxCells)
	}
	rows, cols := int(rows64), int(cols64)
	n := rows * cols

	// Fixed-size sections must fit before any of them is touched.
	need := spbHeaderSize + 8*n
	if flags&flagNABitmap != 0 {
		need += (n + 7) / 8
	}
	if flags&flagLabels != 0 {
		need += 4 * cols
	}
	if need+8 > len(buf) {
		return nil, fmt.Errorf("matrix: spb: %d bytes, need at least %d for a %dx%d matrix", len(buf), need+8, rows, cols)
	}
	body, tail := buf[:len(buf)-8], buf[len(buf)-8:]
	if got, want := Digest64(body), binary.LittleEndian.Uint64(tail); got != want {
		return nil, fmt.Errorf("matrix: spb: digest mismatch (stream corrupt): got %#x, want %#x", got, want)
	}

	f := &File{}
	payloadBytes := buf[spbHeaderSize : spbHeaderSize+8*n]
	payload, aliased := aliasFloat64(payloadBytes)
	if !aliased {
		payload = make([]float64, n)
		for k := range payload {
			payload[k] = math.Float64frombits(binary.LittleEndian.Uint64(payloadBytes[8*k:]))
		}
	}
	f.ZeroCopy = aliased
	off := spbHeaderSize + 8*n

	if flags&flagNABitmap != 0 {
		bitmap := buf[off : off+(n+7)/8]
		for k := 0; k < n; k++ {
			if bitmap[k/8]&(1<<uint(k%8)) != 0 {
				payload[k] = math.NaN()
			}
		}
		off += (n + 7) / 8
	}
	if flags&flagRowMajor != 0 {
		// Native layout: the aliased payload IS the matrix.
		f.M = Matrix{Data: payload, Rows: rows, Cols: cols}
	} else {
		// Column-major payload: the in-place transpose turns it into the
		// engine's row-major layout without a second allocation.
		f.M = FromColumnMajor(payload, rows, cols)
	}

	if flags&flagLabels != 0 {
		f.Labels = make([]int, cols)
		for j := range f.Labels {
			f.Labels[j] = int(int32(binary.LittleEndian.Uint32(buf[off+4*j:])))
		}
		off += 4 * cols
	}
	if flags&flagNames != 0 {
		f.Names = make([]string, rows)
		for i := range f.Names {
			if off+2 > len(body) {
				return nil, fmt.Errorf("matrix: spb: truncated name section at row %d", i)
			}
			l := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			if off+l > len(body) {
				return nil, fmt.Errorf("matrix: spb: truncated name at row %d", i)
			}
			f.Names[i] = string(buf[off : off+l])
			off += l
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("matrix: spb: %d trailing bytes after the last section", len(body)-off)
	}
	return f, nil
}

// ReadSPBHeader reads only the 32-byte header of an spb stream and
// returns its dimensions — the cheap metadata peek for registry info
// requests, which must not decode (or digest) a multi-megabyte payload.
// It validates the header fields but, by construction, not the digest.
func ReadSPBHeader(r io.Reader) (rows, cols int, err error) {
	var hdr [spbHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("matrix: spb: reading header: %w", err)
	}
	if [4]byte(hdr[0:4]) != spbMagic {
		return 0, 0, fmt.Errorf("matrix: spb: bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != spbVersion {
		return 0, 0, fmt.Errorf("matrix: spb: unsupported version %d", v)
	}
	rows64 := binary.LittleEndian.Uint64(hdr[16:24])
	cols64 := binary.LittleEndian.Uint64(hdr[24:32])
	if rows64 == 0 || cols64 == 0 || rows64 >= spbMaxDim || cols64 >= spbMaxDim || rows64*cols64 > spbMaxCells {
		return 0, 0, fmt.Errorf("matrix: spb: dimensions %dx%d out of range", rows64, cols64)
	}
	return int(rows64), int(cols64), nil
}

// aliasFloat64 reinterprets b as a []float64 without copying when the host
// is little-endian and b is 8-byte aligned.
func aliasFloat64(b []byte) ([]float64, bool) {
	if !hostLittleEndian || len(b) == 0 {
		return nil, false
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), true
}

// LittleEndianBytes is aliasFloat64's inverse: f's memory as
// little-endian bytes without copying.  It reports false on a
// big-endian host, where the caller must encode the cells itself.
func LittleEndianBytes(f []float64) ([]byte, bool) {
	if !hostLittleEndian || len(f) == 0 {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f)), true
}
