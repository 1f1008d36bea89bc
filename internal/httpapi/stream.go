package httpapi

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
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
// numbers straight off the wire, a chunk at a time on every core: peak
// memory is the decoded values plus a read buffer and a few chunks of
// text, whatever the body size.

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

// decodeFlat consumes the x_flat value through the chunked scanner:
// numbers (and null cells) parse straight off the wire, a chunk of text at
// a time, on every core.  When the shape fields arrived before the array
// (the common key order), the slice is sized once up front.
func (sd *submitDecoder) decodeFlat(d *DatasetJSON, out *Floats) error {
	br := bufio.NewReaderSize(sd.takeover(), flatReadSize)
	// The hint comes from client-controlled fields, so it bounds nothing
	// by itself: a 60-byte body claiming genes=samples=4e6 must not make
	// the server attempt a 140 TB allocation.  Cap the preallocation at
	// maxFlatHint cells (32 MB) — larger matrices are joined from their
	// chunks — and compute the product in 64 bits so it cannot wrap.
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

// flatWindow bounds the longest number token x_flat accepts: no real
// float64 is 4 KB of text.
const flatWindow = 4096

// flatReadSize is the x_flat scanner's read buffer: a refill reads up to
// this many bytes of body at once, so an 8 MB array takes about 130 reads
// from the connection.
const flatReadSize = 64 << 10

// flatChunk is how much array text one chunk carries: the scanner reads
// this many bytes and cuts them after their last ',', so a 6102 × 76 body
// (8 MB) parses as about 60 chunks.  At most workers+1 chunks are held at
// once.  Smaller chunks cost more in hand-offs: at 64 KB the decode was
// 7 % slower on two cores.
const flatChunk = 128 << 10

// flatMaxWorkers caps the workers one array is parsed on, and so the text
// it holds at once to five chunks (640 KB), on any machine.
const flatMaxWorkers = 4

// isJSONSpace reports JSON's four whitespace bytes.
func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
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

// nextByte returns the first non-whitespace byte at br's position without
// consuming it; the end of the stream is io.ErrUnexpectedEOF, and a read
// error (the size bound, say) is returned as it is.
func nextByte(br *bufio.Reader) (byte, error) {
	for {
		c, err := br.ReadByte()
		if err == io.EOF {
			return 0, io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, err
		}
		if !isJSONSpace(c) {
			br.UnreadByte()
			return c, nil
		}
	}
}

// finishFlat positions br for resume: one ',' after the array (if the
// enclosing object continues) is swallowed so the resume prefix
// concatenates cleanly.  What the swallowed comma hid is checked here:
// the array must be followed by ',' and a key, or by the enclosing
// object's '}'.
func finishFlat(br *bufio.Reader) error {
	c, err := nextByte(br)
	if err != nil {
		return err
	}
	switch c {
	case '}':
	case ',':
		br.Discard(1)
		if c, err = nextByte(br); err != nil {
			return err
		}
		if c != '"' {
			return fmt.Errorf("expected an object key after ',', got %q", c)
		}
	default:
		return fmt.Errorf("expected ',' or '}' after the array, got %q", c)
	}
	return nil
}

// scanFlat reads one JSON array of numbers/nulls (or the literal null,
// reported via absent) from br — positioned at the ':' after the x_flat
// key, which the takeover leaves unconsumed — then consumes a trailing
// ',' if one follows, leaving br exactly where resume needs it.  sizeHint
// (0 = unknown) pre-sizes the slice so the usual genes×samples payload
// costs one allocation.  The cells parse in flatChunk pieces on
// GOMAXPROCS workers, at most flatMaxWorkers.
func scanFlat(br *bufio.Reader, sizeHint int) (Floats, bool, error) {
	return scanFlatChunks(br, sizeHint, flatChunk, min(runtime.GOMAXPROCS(0), flatMaxWorkers))
}

// scanFlatChunks is scanFlat with the chunk size and worker count given.
func scanFlatChunks(br *bufio.Reader, sizeHint, chunk, workers int) (Floats, bool, error) {
	c, err := nextByte(br)
	if err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, fmt.Errorf("expected ':' after the key, got %q", c)
	}
	br.Discard(1)
	if c, err = nextByte(br); err != nil {
		return nil, false, err
	}
	if c == 'n' {
		// Fewer than four bytes left also fails: the stream ended, or a
		// read error cut it, inside a token that is not null.
		if b, _ := br.Peek(4); string(b) != "null" {
			return nil, false, fmt.Errorf("expected %q", "null")
		}
		br.Discard(4)
		return nil, true, finishFlat(br)
	}
	if c != '[' {
		return nil, false, fmt.Errorf("expected an array of numbers")
	}
	br.Discard(1)
	if c, err = nextByte(br); err != nil {
		return nil, false, err
	}
	if c == ']' {
		br.Discard(1)
		return Floats{}, false, finishFlat(br)
	}
	p := newFlatPipe(br, sizeHint, chunk, workers)
	defer p.stop()
	cells, err := p.run()
	if err != nil {
		return nil, false, err
	}
	return cells, false, finishFlat(br)
}

// flatPipe parses an x_flat array's cells in chunks.  The handler
// goroutine reads the text and cuts it after the last ',' of each chunk,
// carrying the partial token into the next, so every chunk starts where a
// cell starts and no token crosses a boundary.  Workers parse the chunks
// into their own slices, which are collected in order.  A body whose
// array fits in one chunk, or a scan with one worker, parses on the
// handler goroutine and starts none.
type flatPipe struct {
	br      *bufio.Reader
	chunk   int
	workers int
	carry   []byte // text after the last cut: the start of the next chunk
	ended   error  // why the stream stopped: a read error, or io.ErrUnexpectedEOF

	free    []*flatChunkText // collected chunks, for reuse
	queue   []*flatChunkText // chunks read and not yet collected, in order
	work    chan *flatChunkText
	wg      sync.WaitGroup
	started int // workers started

	out  Floats      // cells collected into the size hint's slice
	kept [][]float64 // cells collected past it, joined at the end
	n    int         // cells collected
}

func newFlatPipe(br *bufio.Reader, sizeHint, chunk, workers int) *flatPipe {
	return &flatPipe{br: br, chunk: max(chunk, 1), workers: workers, ended: io.ErrUnexpectedEOF,
		out: make(Floats, 0, sizeHint)}
}

// flatChunkText is one chunk of an x_flat array and what parsing it gave.
type flatChunkText struct {
	// text starts where a cell starts and ends just after a ','; the last
	// chunk ends at the array's ']' or where the stream stopped.
	text     []byte
	last     bool
	async    bool // parsed by a worker: collect after done
	done     chan struct{}
	panicked any // what a worker's parse panicked with
	cells    []float64
	closed   bool  // text ended at the array's ']'
	err      error // the first fault in text
	errAt    int   // the chunk's cell err (or the stream's end) names, or -1
}

// run reads, parses and collects every chunk of the array, returning its
// cells or the first fault by byte position.
func (p *flatPipe) run() (Floats, error) {
	for {
		if len(p.queue) > p.workers {
			if err := p.collect(); err != nil {
				return nil, err
			}
		}
		c := p.take()
		p.read(c)
		p.queue = append(p.queue, c)
		if !c.last && p.workers > 1 {
			p.dispatch(c)
			continue
		}
		c.parse()
		for len(p.queue) > 0 {
			if err := p.collect(); err != nil {
				return nil, err
			}
		}
		if c.last {
			return p.join(), nil
		}
	}
}

// take returns a collected chunk for reuse, or a new one.
func (p *flatPipe) take() *flatChunkText {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return &flatChunkText{text: make([]byte, 0, min(p.chunk, flatChunk)), done: make(chan struct{}, 1)}
}

// read fills c.text with the next chunk: the carry, then the stream
// through the last ',' once it holds at least p.chunk bytes, or through
// the array's ']', or to where the stream stops.
func (p *flatPipe) read(c *flatChunkText) {
	b := append(c.text[:0], p.carry...)
	p.carry = p.carry[:0]
	comma := -1 // b holds no ',': the carry follows the last one
	for {
		want := p.chunk - len(b)
		if want <= 0 {
			want = p.chunk
		}
		win, err := p.br.Peek(min(want, p.br.Size()))
		if k := bytes.IndexByte(win, ']'); k >= 0 {
			c.text, c.last = append(b, win[:k+1]...), true
			p.br.Discard(k + 1)
			return
		}
		if k := bytes.LastIndexByte(win, ','); k >= 0 {
			comma = len(b) + k
		}
		b = append(b, win...)
		p.br.Discard(len(win))
		if err != nil {
			if err != io.EOF {
				p.ended = err
			}
			c.text, c.last = b, true
			return
		}
		if len(b) < p.chunk {
			continue
		}
		if comma >= 0 {
			p.carry = append(p.carry, b[comma+1:]...)
			c.text, c.last = b[:comma+1], false
			return
		}
		// No ',' in more than a chunk: only whitespace can make a valid
		// array that long, so squeeze it.  What is still longer than one
		// token then holds a fault, and ends the array.
		if len(b) > 2*flatWindow {
			if b = squeezeSpace(b); len(b) > flatWindow {
				c.text, c.last = b, true
				return
			}
		}
	}
}

// squeezeSpace drops the leading whitespace of b, which starts where a
// cell starts, and shortens every other run of it to one space.  No token
// or error text changes: whitespace only ends tokens.  With no ',' or ']'
// in b, a result longer than flatWindow holds a second token or a
// too-long one, and so a fault.
func squeezeSpace(b []byte) []byte {
	out, space := b[:0], true
	for _, c := range b {
		if !isJSONSpace(c) {
			out, space = append(out, c), false
		} else if !space {
			out, space = append(out, ' '), true
		}
	}
	return out
}

// dispatch hands c to a worker, starting one while fewer than p.workers
// run.
func (p *flatPipe) dispatch(c *flatChunkText) {
	if p.work == nil {
		p.work = make(chan *flatChunkText)
	}
	if p.started < p.workers {
		p.started++
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for c := range p.work {
				func() {
					// A panic goes back to the handler goroutine, where the
					// HTTP server recovers it, as it did the serial scan's.
					defer func() { c.panicked = recover(); c.done <- struct{}{} }()
					c.parse()
				}()
			}
		}()
	}
	c.async = true
	p.work <- c
}

// stop ends the workers; it returns once every one has exited.
func (p *flatPipe) stop() {
	if p.work != nil {
		close(p.work)
		p.wg.Wait()
	}
}

// collect takes the oldest chunk's cells, or its fault with the cell
// index counted over the whole array.
func (p *flatPipe) collect() error {
	c := p.queue[0]
	p.queue = p.queue[1:]
	if c.async {
		<-c.done
		c.async = false
		if c.panicked != nil {
			panic(c.panicked)
		}
	}
	p.free = append(p.free, c)
	switch {
	case c.err != nil && c.errAt >= 0:
		return fmt.Errorf("cell %d: %w", p.n+c.errAt, c.err)
	case c.err != nil:
		return c.err
	case c.last && !c.closed && c.errAt >= 0:
		return fmt.Errorf("cell %d: %w", p.n+c.errAt, p.ended)
	case c.last && !c.closed:
		return p.ended
	}
	p.n += len(c.cells)
	if len(p.kept) == 0 && len(p.out)+len(c.cells) <= cap(p.out) {
		p.out = append(p.out, c.cells...)
	} else {
		p.kept = append(p.kept, c.cells)
		c.cells = nil // kept owns them now
	}
	return nil
}

// join returns every collected cell in one exactly sized slice.
func (p *flatPipe) join() Floats {
	switch {
	case len(p.kept) == 0:
		return p.out
	case len(p.out) == 0 && len(p.kept) == 1:
		return p.kept[0]
	}
	all := make(Floats, 0, p.n)
	all = append(all, p.out...)
	for _, k := range p.kept {
		all = append(all, k...)
	}
	return all
}

// parse converts c.text's cells into c.cells, stopping at the first
// fault.  Each cell is null or a number token; a number converts through
// fastNumber when it can and through parseNumber otherwise.
func (c *flatChunkText) parse() {
	b := c.text
	cells := c.cells[:0]
	if n := bytes.Count(b, []byte{','}) + 1; cap(cells) < n {
		cells = make([]float64, 0, n) // every cell but the last ends at a ','
	}
	c.closed, c.err, c.errAt = false, nil, -1
	for i := 0; ; {
		for i < len(b) && isJSONSpace(b[i]) {
			i++
		}
		if i == len(b) {
			break // after a chunk's last ',', or the stream stopped
		}
		if b[i] == 'n' {
			if len(b)-i < 4 || string(b[i:i+4]) != "null" {
				c.err = fmt.Errorf("expected %q", "null")
				break
			}
			cells = append(cells, math.NaN())
			i += 4
		} else if v, n, ok := fastNumber(b[i:]); ok && n < flatWindow && i+n < len(b) && isNumberEnd(b[i+n]) {
			cells = append(cells, v)
			i += n
		} else {
			j := i
			for j < len(b) && !isNumberEnd(b[j]) {
				j++
			}
			var err error
			switch {
			case j-i >= flatWindow:
				err = fmt.Errorf("number token exceeds %d bytes", flatWindow)
			case j == len(b):
				c.errAt = len(cells) // the stream stopped inside the token
				c.cells = cells
				return
			default:
				v, err = parseNumber(b[i:j])
			}
			if err != nil {
				c.err, c.errAt = err, len(cells)
				break
			}
			cells = append(cells, v)
			i = j
		}
		for i < len(b) && isJSONSpace(b[i]) {
			i++
		}
		if i == len(b) {
			break
		}
		sep := b[i]
		i++
		if sep == ']' {
			c.closed = true
			break
		}
		if sep != ',' {
			c.err, c.errAt = fmt.Errorf("expected ',' or ']', got %q", sep), len(cells)
			break
		}
	}
	c.cells = cells
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
