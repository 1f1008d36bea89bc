package httpapi

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
)

// This file owns how request bodies enter the server: optional gzip
// transport compression (with the decompressed size bounded, so a tiny
// compressed body cannot balloon past MaxBodyBytes), and a streaming JSON
// decoder for submissions.  The streaming decoder exists to bound peak
// memory: encoding/json's Decode buffers the ENTIRE value being decoded,
// so a 120 MB x_flat submission used to hold the body text AND the float
// slice in memory at once.  Here the envelope is walked token by token,
// matrix rows decode one row at a time, and the x_flat array — the bulk
// of a large body — is consumed by a byte-level scanner that parses
// numbers straight off the wire: peak memory is the decoded values plus a
// fixed read buffer, whatever the body size.

// errUnsupportedEncoding rejects Content-Encoding values other than
// identity and gzip.
var errUnsupportedEncoding = errors.New("httpapi: unsupported content encoding (want identity or gzip)")

// errDecompressedTooLarge rejects gzip bodies whose decompressed size
// exceeds the configured body limit.
var errDecompressedTooLarge = errors.New("httpapi: decompressed body exceeds the size limit")

// boundedReader errors once more than limit bytes have been read — the
// decompressed-side counterpart of http.MaxBytesReader.
type boundedReader struct {
	r    io.Reader
	left int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if b.left < 0 {
		return 0, errDecompressedTooLarge
	}
	if int64(len(p)) > b.left+1 {
		p = p[:b.left+1] // allow one byte over to distinguish EOF from overflow
	}
	n, err := b.r.Read(p)
	b.left -= int64(n)
	if b.left < 0 {
		return n, errDecompressedTooLarge
	}
	return n, err
}

// requestBody wraps a request body with the server's size bound and the
// transport decoding the client chose.  The returned ReadCloser must be
// closed by the caller.
func (s *Server) requestBody(w http.ResponseWriter, r *http.Request) (io.ReadCloser, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	switch r.Header.Get("Content-Encoding") {
	case "", "identity":
		return r.Body, nil
	case "gzip":
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			return nil, fmt.Errorf("httpapi: gzip body: %w", err)
		}
		return struct {
			io.Reader
			io.Closer
		}{&boundedReader{r: zr, left: s.maxBody}, zr}, nil
	default:
		return nil, errUnsupportedEncoding
	}
}

// writeBodyError maps body-layer failures onto their status codes.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
	case errors.Is(err, errDecompressedTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, errUnsupportedEncoding):
		writeError(w, http.StatusUnsupportedMediaType, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// submitDecoder walks a submission body.  It is a json.Decoder for the
// envelope, with one twist: when it reaches the x_flat array it takes the
// raw byte stream over from the decoder, scans the floats directly, and
// then REBUILDS the decoder positioned where it left off — json.Decoder
// cannot resume mid-object, so the remainder is re-entered through a tiny
// synthetic prefix that reopens the two enclosing objects.
type submitDecoder struct {
	raw   io.Reader // the reader the CURRENT dec was constructed over
	dec   *json.Decoder
	depth int // open objects enclosing the current value
}

func newSubmitDecoder(r io.Reader) *submitDecoder {
	sd := &submitDecoder{raw: r, dec: json.NewDecoder(r)}
	sd.dec.DisallowUnknownFields()
	return sd
}

// takeover returns the raw unconsumed byte stream: whatever the decoder
// read ahead, then the rest of the body.  The current decoder must not be
// used after this.
func (sd *submitDecoder) takeover() io.Reader {
	return io.MultiReader(sd.dec.Buffered(), sd.raw)
}

// resume rebuilds the decoder over rem, which must sit just after a
// value at the current object depth with any following ',' already
// consumed.  A synthetic prefix re-enters the enclosing objects (`{"r":{`
// for an x_flat inside a submission, `{` inside a bare dataset upload),
// so the fresh decoder's token state matches where the scan stopped —
// whatever the key order around x_flat was.
func (sd *submitDecoder) resume(rem io.Reader) error {
	prefix := strings.Repeat(`{"r":`, sd.depth-1) + "{"
	raw := io.MultiReader(strings.NewReader(prefix), rem)
	dec := json.NewDecoder(raw)
	dec.DisallowUnknownFields()
	for i := 0; i < 2*(sd.depth-1)+1; i++ { // consume '{' ("r" '{')...
		if _, err := dec.Token(); err != nil {
			return fmt.Errorf("resuming after x_flat: %w", err)
		}
	}
	sd.raw, sd.dec = raw, dec
	return nil
}

// DecodeSubmit decodes a POST /v1/jobs body from the stream.  It accepts
// exactly what a buffered decoder accepts — unknown fields are errors,
// null matrix fields mean absent — but never materialises the body text.
// Exported for the ingest benchmarks, which compare it against the binary
// codec.
func DecodeSubmit(r io.Reader) (*SubmitRequest, error) {
	sd := newSubmitDecoder(r)
	req := &SubmitRequest{}
	err := sd.decodeObject(func(key string) error {
		switch fieldName(key, "dataset", "options", "nprocs", "checkpoint_every", "class") {
		case "dataset":
			return sd.decodeDataset(&req.Dataset)
		case "options":
			return sd.dec.Decode(&req.Options)
		case "nprocs":
			return sd.dec.Decode(&req.NProcs)
		case "checkpoint_every":
			return sd.dec.Decode(&req.CheckpointEvery)
		case "class":
			return sd.dec.Decode(&req.Class)
		default:
			return fmt.Errorf("unknown field %q", key)
		}
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// decodeDataset streams one DatasetJSON object (or null).
func (sd *submitDecoder) decodeDataset(d *DatasetJSON) error {
	return sd.decodeObject(func(key string) error {
		switch fieldName(key, "x", "x_flat", "genes", "samples", "dataset_id", "labels") {
		case "x":
			return sd.decodeRows(&d.X)
		case "x_flat":
			return sd.decodeFlat(d, &d.XFlat)
		case "genes":
			return sd.dec.Decode(&d.Genes)
		case "samples":
			return sd.dec.Decode(&d.Samples)
		case "dataset_id":
			return sd.dec.Decode(&d.DatasetID)
		case "labels":
			return sd.dec.Decode(&d.Labels)
		default:
			return fmt.Errorf("unknown dataset field %q", key)
		}
	})
}

// fieldName returns the name in names that key selects the way
// encoding/json matches a key to a struct field — under Unicode case
// folding — or key itself when none does.
func fieldName(key string, names ...string) string {
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return key
}

// decodeObject consumes one JSON object (or null), dispatching each key
// to field.  The callback must consume exactly the key's value; it may
// swap sd.dec (the x_flat takeover), which is why the loop re-reads
// sd.dec every iteration.
func (sd *submitDecoder) decodeObject(field func(key string) error) error {
	tok, err := sd.dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		return nil // null: conventional absent-object behaviour
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("expected a JSON object, got %v", tok)
	}
	sd.depth++
	defer func() { sd.depth-- }()
	for sd.dec.More() {
		keyTok, err := sd.dec.Token()
		if err != nil {
			return err
		}
		key, ok := keyTok.(string)
		if !ok {
			return fmt.Errorf("expected an object key, got %v", keyTok)
		}
		if err := field(key); err != nil {
			return err
		}
	}
	_, err = sd.dec.Token() // consume '}'
	return err
}

// decodeRows streams an array of matrix rows, decoding one row at a time:
// the decoder's internal buffer holds a single row's text, not the
// matrix's.
func (sd *submitDecoder) decodeRows(out *Matrix) error {
	tok, err := sd.dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		return nil // "x": null means absent
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("x: expected an array of rows, got %v", tok)
	}
	rows := make([][]float64, 0, 64)
	for sd.dec.More() {
		var row Floats
		if err := sd.dec.Decode(&row); err != nil {
			return fmt.Errorf("x: row %d: %w", len(rows), err)
		}
		rows = append(rows, row)
	}
	if _, err := sd.dec.Token(); err != nil { // consume ']'
		return err
	}
	*out = rows
	return nil
}

// decodeFlat consumes the x_flat value through the raw-stream scanner:
// numbers (and null cells) parse straight off the wire into the slice,
// allocating nothing per cell.  When the shape fields arrived before the
// array (the common key order), the slice is sized once up front.
func (sd *submitDecoder) decodeFlat(d *DatasetJSON, out *Floats) error {
	br := bufio.NewReaderSize(sd.takeover(), flatReadSize)
	// The hint comes from client-controlled fields, so it bounds nothing
	// by itself: a 60-byte body claiming genes=samples=4e6 must not make
	// the server attempt a 140 TB allocation.  Cap the preallocation at
	// maxFlatHint cells (32 MB) — larger matrices just take the amortised
	// append-growth path — and compute the product in 64 bits so it
	// cannot wrap.
	const maxFlatHint = 1 << 22
	hint := 0
	if d.Genes > 0 && d.Samples > 0 && d.Genes <= maxFlatHint && d.Samples <= maxFlatHint {
		// Both factors are bounded, so the 64-bit product cannot wrap.
		if cells := int64(d.Genes) * int64(d.Samples); cells <= maxFlatHint {
			hint = int(cells)
		} else {
			hint = maxFlatHint
		}
	}
	vals, absent, err := scanFlat(br, hint)
	if err != nil {
		return fmt.Errorf("x_flat: %w", err)
	}
	if !absent {
		*out = vals
	}
	return sd.resume(br)
}

// flatWindow is the Peek window of the x_flat scanner.  It bounds both
// the scan granularity and the longest single number token accepted.
const flatWindow = 4096

// flatReadSize is the x_flat scanner's read buffer: a refill reads up to
// this many bytes of body at once, so an 8 MB array takes about 130 reads
// from the connection instead of the 2000 a window-sized buffer would.
const flatReadSize = 64 << 10

// isJSONSpace reports JSON's four whitespace bytes.
func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// flatScanner walks br through windowed Peek/Discard so the hot loop
// runs over a plain byte slice instead of per-byte reader calls.
type flatScanner struct {
	br  *bufio.Reader
	win []byte // current Peek window
	i   int    // cursor within win
	err error  // sticky underlying read error (nil for plain EOF)
}

// slide discards the consumed prefix and re-peeks.  Returns false at the
// true end of stream.
func (fs *flatScanner) slide() bool {
	fs.br.Discard(fs.i)
	fs.i = 0
	var err error
	fs.win, err = fs.br.Peek(flatWindow) // short windows are fine; len decides
	if err != nil && err != io.EOF {
		fs.err = err // e.g. the decompressed-size bound: must not become EOF
	}
	return len(fs.win) > 0
}

// eof converts exhaustion into the underlying cause when there is one.
func (fs *flatScanner) eof() error {
	if fs.err != nil {
		return fs.err
	}
	return io.ErrUnexpectedEOF
}

// next returns the first non-whitespace byte at or after the cursor
// without consuming it.
func (fs *flatScanner) next() (byte, error) {
	for {
		for fs.i < len(fs.win) {
			if c := fs.win[fs.i]; !isJSONSpace(c) {
				return c, nil
			}
			fs.i++
		}
		if !fs.slide() {
			return 0, fs.eof()
		}
	}
}

// lit consumes an exact literal.
func (fs *flatScanner) lit(s string) error {
	for fs.i+len(s) > len(fs.win) {
		if !fs.slide() {
			return fs.eof()
		}
		if len(fs.win) < len(s) && fs.i == 0 {
			return fmt.Errorf("expected %q", s)
		}
	}
	if string(fs.win[fs.i:fs.i+len(s)]) != s {
		return fmt.Errorf("expected %q", s)
	}
	fs.i += len(s)
	return nil
}

// isJSONNumber validates b against RFC 8259's number grammar.  The guard
// matters because parseNumber's fallback is strconv.ParseFloat, which also
// accepts "NaN", "Infinity", hex floats and digit underscores — inputs
// the buffered json decoder (and this decoder's documented contract)
// must reject.
func isJSONNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	digit := func(c byte) bool { return c >= '0' && c <= '9' }
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && digit(b[i]):
		for i < len(b) && digit(b[i]) {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !digit(b[i]) {
			return false
		}
		for i < len(b) && digit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !digit(b[i]) {
			return false
		}
		for i < len(b) && digit(b[i]) {
			i++
		}
	}
	return i == len(b)
}

// isNumberEnd reports the bytes that end a number token inside x_flat.
func isNumberEnd(c byte) bool {
	return c == ',' || c == ']' || isJSONSpace(c)
}

// number consumes one number token (cursor on its first byte) and parses
// it.  The common token — grammatical, converted by the fast path and
// ended inside the window — costs one pass over its bytes; any other
// finds its end first and goes through parseNumber.
func (fs *flatScanner) number() (float64, error) {
	if v, n, ok := fastNumber(fs.win[fs.i:]); ok && fs.i+n < len(fs.win) && isNumberEnd(fs.win[fs.i+n]) {
		fs.i += n
		return v, nil
	}
	j := fs.i
	for {
		for j < len(fs.win) {
			if isNumberEnd(fs.win[j]) {
				v, err := parseNumber(fs.win[fs.i:j])
				fs.i = j
				return v, err
			}
			j++
		}
		// The token reaches the window edge: slide it to the window start
		// and extend.  A token the size of the whole window is rejected —
		// no real float64 is 4 KB of text.
		if fs.i == 0 && len(fs.win) == flatWindow {
			return 0, fmt.Errorf("number token exceeds %d bytes", flatWindow)
		}
		j -= fs.i
		if !fs.slide() {
			return 0, fs.eof()
		}
		if j >= len(fs.win) { // EOF inside the token: unterminated array
			return 0, fs.eof()
		}
	}
}

// finish positions br for resume: the consumed prefix is discarded, and
// one following ',' (if the enclosing object continues) is swallowed so
// the resume prefix concatenates cleanly.  What the swallowed comma hid
// is checked here: the array must be followed by ',' and a key, or by
// the enclosing object's '}'.
func (fs *flatScanner) finish() error {
	c, err := fs.next()
	if err != nil {
		return err
	}
	switch c {
	case '}':
	case ',':
		fs.i++
		if c, err = fs.next(); err != nil {
			return err
		}
		if c != '"' {
			return fmt.Errorf("expected an object key after ',', got %q", c)
		}
	default:
		return fmt.Errorf("expected ',' or '}' after the array, got %q", c)
	}
	fs.br.Discard(fs.i)
	fs.i = 0
	fs.win = nil
	return nil
}

// scanFlat reads one JSON array of numbers/nulls (or the literal null,
// reported via absent) from br — positioned at the ':' after the x_flat
// key, which the takeover leaves unconsumed — then consumes a trailing
// ',' if one follows, leaving br exactly where resume needs it.  sizeHint
// (0 = unknown) pre-sizes the slice so the usual genes×samples payload
// costs one allocation.
func scanFlat(br *bufio.Reader, sizeHint int) (Floats, bool, error) {
	fs := &flatScanner{br: br}
	c, err := fs.next()
	if err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, fmt.Errorf("expected ':' after the key, got %q", c)
	}
	fs.i++
	c, err = fs.next()
	if err != nil {
		return nil, false, err
	}
	if c == 'n' {
		if err := fs.lit("null"); err != nil {
			return nil, false, err
		}
		return nil, true, fs.finish()
	}
	if c != '[' {
		return nil, false, fmt.Errorf("expected an array of numbers")
	}
	fs.i++
	cells := newFlatCells(sizeHint)
	c, err = fs.next()
	if err != nil {
		return nil, false, err
	}
	if c == ']' {
		fs.i++
		return cells.join(), false, fs.finish()
	}
	for {
		c, err = fs.next()
		if err != nil {
			return nil, false, err
		}
		if c == 'n' {
			if err := fs.lit("null"); err != nil {
				return nil, false, err
			}
			cells.add(math.NaN())
		} else {
			v, err := fs.number()
			if err != nil {
				return nil, false, fmt.Errorf("cell %d: %w", cells.len(), err)
			}
			cells.add(v)
		}
		c, err = fs.next()
		if err != nil {
			return nil, false, err
		}
		fs.i++
		switch c {
		case ',':
		case ']':
			return cells.join(), false, fs.finish()
		default:
			return nil, false, fmt.Errorf("cell %d: expected ',' or ']', got %q", cells.len(), c)
		}
	}
}

// flatBlockMax bounds the blocks flatCells fills: they double from the
// first block's size up to this many cells (512 KB) and stay there.
const flatBlockMax = 1 << 16

// flatCells accumulates the cells of one x_flat array.  With the shape
// known up front the first block is sized to the whole array and nothing
// is ever copied.  Without it (x_flat before genes and samples) full
// blocks are kept as they are and joined once, at the end, into one
// exactly sized slice: append growth would instead copy the prefix again
// at every step, about four times the array in all.
type flatCells struct {
	full [][]float64 // filled blocks, in order
	n    int         // cells in full
	cur  []float64   // the block being filled
}

func newFlatCells(sizeHint int) *flatCells {
	if sizeHint <= 0 {
		sizeHint = 1024
	}
	return &flatCells{cur: make([]float64, 0, sizeHint)}
}

func (c *flatCells) add(v float64) {
	if len(c.cur) == cap(c.cur) {
		c.spill()
	}
	c.cur = append(c.cur, v)
}

// spill files the full current block and starts the next one.
func (c *flatCells) spill() {
	c.full = append(c.full, c.cur)
	c.n += len(c.cur)
	c.cur = make([]float64, 0, min(2*cap(c.cur), flatBlockMax))
}

func (c *flatCells) len() int { return c.n + len(c.cur) }

// join returns every cell in one slice.
func (c *flatCells) join() Floats {
	if len(c.full) == 0 {
		return c.cur
	}
	out := make(Floats, 0, c.len())
	for _, b := range c.full {
		out = append(out, b...)
	}
	return append(out, c.cur...)
}

// decodeDatasetUpload streams a PUT /v1/datasets JSON body: a bare
// DatasetJSON object, with the same row- and flat-streaming behaviour as
// a submission's dataset block.
func decodeDatasetUpload(r io.Reader) (DatasetJSON, error) {
	sd := newSubmitDecoder(r)
	var d DatasetJSON
	if err := sd.decodeDataset(&d); err != nil {
		return DatasetJSON{}, err
	}
	return d, nil
}
