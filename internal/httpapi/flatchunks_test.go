package httpapi

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sprint/internal/microarray"
)

// flatBlockMax is the cell count TestFlatShapeAfterArray sizes its largest
// array by (5·flatBlockMax + 3 cells, about 5 MB of text): the block size
// of the serial scanner the chunked one replaced, and now a body of about
// forty chunks.
const flatBlockMax = 1 << 16

// failReader serves s in reads of 1…max bytes, cycling, then ends with
// err (io.EOF when nil) on every later read.
type failReader struct {
	s      string
	k, max int
	err    error
}

func (r *failReader) Read(p []byte) (int, error) {
	if r.s == "" {
		if r.err != nil {
			return 0, r.err
		}
		return 0, io.EOF
	}
	r.k = r.k%r.max + 1
	n := copy(p[:min(len(p), r.k)], r.s)
	r.s = r.s[n:]
	return n, nil
}

var errReadFailed = errors.New("read failed")

// flatScanResult renders everything a scan returns — absent, the error
// text, what is left unread after success, and every cell's bits — so
// that two scans compare as strings.
func flatScanResult(br *bufio.Reader, v Floats, absent bool, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "absent=%v nil=%v err=%v", absent, v == nil, err)
	if err == nil {
		rest, _ := io.ReadAll(br)
		fmt.Fprintf(&b, " rest=%q", rest)
	}
	for _, x := range v {
		fmt.Fprintf(&b, " %x", math.Float64bits(x))
	}
	return b.String()
}

// FuzzScanFlatChunks scans every input at chunk sizes of 1, 2, 3, 7 and
// 64 bytes with 1–4 workers, and requires each scan to match the one that
// reads the whole array as one chunk: every bit of every cell, the exact
// error text and where the reader is left.  failAt cuts the stream there
// with a read error (past the end, the stream ends cleanly), so a fault
// and the read error race by byte position.
func FuzzScanFlatChunks(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(":[1,"+s+",null]}", uint16(math.MaxUint16), uint8(3))
		f.Add(": [ "+s+" , 2 ] , \"k\"", uint16(math.MaxUint16), uint8(0))
	}
	sp := strings.Repeat(" ", 2*flatWindow+5)
	for _, s := range []string{
		":null}", ": nu", ":[]}", ":[ ]x", ":[1 , 2 3]", ":[1,,2]", ":[1,2,]}", ":[nullx]",
		":[1,2,3],x", ":[1,2,3],\"k\"", ":[1,2,3] }", "[1]", ":{}",
		":[1," + sp + "2" + sp + "," + sp + "3" + sp + "]}",
		":[1," + sp + "2" + sp + "x" + sp + "]}",
		":[1," + strings.Repeat("2 ", flatWindow) + "]}",
		":[1," + strings.Repeat("2", flatWindow+1) + "]}",
		":[1,0." + strings.Repeat("0", flatWindow-3) + ",1]}",
		":[1,0." + strings.Repeat("0", flatWindow-2) + ",1]}",
		":[1,null" + sp + "x]}", ":[1,nul" + sp + "]}",
	} {
		f.Add(s, uint16(math.MaxUint16), uint8(200))
		f.Add(s, uint16(len(s)/2), uint8(7))
	}
	f.Fuzz(func(t *testing.T, stream string, failAt uint16, reads uint8) {
		if len(stream) > 64<<10 {
			return
		}
		reader := func() *bufio.Reader {
			r := &failReader{s: stream, max: 1 + int(reads)}
			if int(failAt) < len(stream) {
				r.s, r.err = stream[:failAt], errReadFailed
			}
			return bufio.NewReader(r)
		}
		br := reader()
		v, absent, err := scanFlatChunks(br, 0, math.MaxInt32, 1)
		want := flatScanResult(br, v, absent, err)
		for _, chunk := range []int{1, 2, 3, 7, 64} {
			for workers := 1; workers <= 4; workers++ {
				br := reader()
				v, absent, err := scanFlatChunks(br, 0, chunk, workers)
				if got := flatScanResult(br, v, absent, err); got != want {
					t.Fatalf("%q at %d-byte chunks on %d workers:\n got %s\nwant %s", stream, chunk, workers, got, want)
				}
			}
		}
	})
}

// waitGoroutines fails the test unless the goroutine count returns to
// start: no scan may leave a worker behind.
func waitGoroutines(t *testing.T, start int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the decode", what, runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// paperFlatBody is the paper-shaped 6102×76 body BenchmarkDecodeSubmit
// decodes, shape first or after the array, with its cells.
func paperFlatBody(t testing.TB, shapeFirst bool) (string, [][]float64) {
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 6102, Samples: 76, Classes: 2, DiffFraction: 0.05, EffectSize: 1.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	genes, samples := len(data.X), len(data.X[0])
	var cells []byte
	for j := 0; j < samples; j++ {
		for i := 0; i < genes; i++ {
			if len(cells) > 0 {
				cells = append(cells, ',')
			}
			cells = strconv.AppendFloat(cells, data.X[i][j], 'g', -1, 64)
		}
	}
	shape := fmt.Sprintf(`"genes":%d,"samples":%d`, genes, samples)
	arr := `"x_flat":[` + string(cells) + `]`
	if shapeFirst {
		return `{"dataset":{` + shape + `,` + arr + `,"labels":[0,1]},"options":{"b":128},"nprocs":2}`, data.X
	}
	return `{"dataset":{` + arr + `,` + shape + `,"labels":[0,1]},"options":{"b":128},"nprocs":2}`, data.X
}

// TestDecodeSubmitEveryGOMAXPROCS: the paper-shaped body decodes to the
// same bits — ParseFloat's, as the cells were written shortest-form — at
// 1, 2 and 8 workers, in both key orders, and every field after the array
// is read; no worker outlives the decode.
func TestDecodeSubmitEveryGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shapeFirst := range []bool{true, false} {
		body, x := paperFlatBody(t, shapeFirst)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			start := runtime.NumGoroutine()
			req, err := DecodeSubmit(strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, start, fmt.Sprintf("GOMAXPROCS %d", procs))
			d := req.Dataset
			if d.Genes != len(x) || d.Samples != len(x[0]) || len(d.Labels) != 2 || req.Options.B != 128 || req.NProcs != 2 {
				t.Fatalf("GOMAXPROCS %d shape first %v: fields after the array lost: %+v %+v nprocs %d",
					procs, shapeFirst, d.Genes, req.Options, req.NProcs)
			}
			if len(d.XFlat) != len(x)*len(x[0]) {
				t.Fatalf("GOMAXPROCS %d: %d cells", procs, len(d.XFlat))
			}
			for k, v := range d.XFlat {
				if want := x[k%len(x)][k/len(x)]; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("GOMAXPROCS %d shape first %v cell %d: %v, want %v", procs, shapeFirst, k, v, want)
				}
			}
		}
	}
}

// flatCellsText returns n comma-separated cells, the i-th i%1000/8 − 3.
func flatCellsText(n int) []string {
	c := make([]string, n)
	for i := range c {
		c[i] = strconv.FormatFloat(float64(i%1000)/8-3, 'g', -1, 64)
	}
	return c
}

// TestFlatPipelineEdges decodes bodies of many chunks on four workers
// and requires what the serial scanner this one replaced reported: the
// same cell count, or the same error text — the first fault by byte
// position, a parse error or a read error, with the cell index counted
// over the whole array.  Each decode leaves no worker running.
func TestFlatPipelineEdges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 100_000 // about 600 KB of text: five chunks
	cells := flatCellsText(n)
	full := `{"dataset":{"x_flat":[` + strings.Join(cells, ",") + `],"genes":100000,"samples":1},"options":{"b":7}}`
	bad := append([]string(nil), cells...)
	bad[n-10] = "1.2.3"
	afterComma := len(`{"dataset":{"x_flat":[` + strings.Join(cells[:60_000], ",") + `,`)
	midToken := afterComma + 1 // inside cell 60000, "-3"
	sp := strings.Repeat(" ", 3*flatChunk)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(full))
	zw.Close()

	for _, c := range []struct {
		name string
		r    func() io.Reader
		want string // error text; "" = decodes n cells and the fields after the array
	}{
		{"whole", func() io.Reader { return strings.NewReader(full) }, ""},
		{"bad token in the last chunk",
			func() io.Reader {
				return strings.NewReader(`{"dataset":{"x_flat":[` + strings.Join(bad, ",") + `]}}`)
			},
			`x_flat: cell 99990: invalid JSON number "1.2.3"`},
		{"cut inside a token", func() io.Reader { return strings.NewReader(full[:midToken]) },
			"x_flat: cell 60000: unexpected EOF"},
		{"cut after a comma", func() io.Reader { return strings.NewReader(full[:afterComma]) },
			"x_flat: unexpected EOF"},
		{"read error after a comma",
			func() io.Reader { return &failReader{s: full[:afterComma], max: 1 << 20, err: errReadFailed} },
			"x_flat: read failed"},
		{"gzip body over the bound",
			func() io.Reader {
				zr, err := gzip.NewReader(bytes.NewReader(gz.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				return &boundedReader{r: zr, left: 300_000}
			},
			"x_flat: cell 49226: httpapi: decompressed body exceeds the size limit"},
		{"a comma then the close",
			func() io.Reader {
				return strings.NewReader(`{"dataset":{"x_flat":[` + strings.Join(cells, ",") + `,]}}`)
			},
			`x_flat: cell 100000: invalid JSON number ""`},
		{"whitespace runs longer than a chunk",
			func() io.Reader {
				return strings.NewReader(`{"dataset":{"x_flat":[` + sp + cells[0] + sp + `,` + sp + strings.Join(cells[1:], ",") + sp + `]` +
					`,"genes":100000,"samples":1},"options":{"b":7}}`)
			}, ""},
		{"no comma for a chunk",
			func() io.Reader {
				return strings.NewReader(`{"dataset":{"x_flat":[1,2,` + strings.Repeat("3 ", flatChunk) + `]}}`)
			},
			"x_flat: cell 3: expected ',' or ']', got '3'"},
		{"a token longer than the limit",
			func() io.Reader {
				return strings.NewReader(`{"dataset":{"x_flat":[1,2,1` + strings.Repeat("0", flatChunk) + `,3]}}`)
			},
			"x_flat: cell 2: number token exceeds 4096 bytes"},
		{"null cut by whitespace",
			func() io.Reader { return strings.NewReader(`{"dataset":{"x_flat":[1, nul` + sp + `]}}`) },
			`x_flat: expected "null"`},
		{"null then a stray byte",
			func() io.Reader { return strings.NewReader(`{"dataset":{"x_flat":[1, null` + sp + `x]}}`) },
			"x_flat: cell 2: expected ',' or ']', got 'x'"},
	} {
		start := runtime.NumGoroutine()
		req, err := DecodeSubmit(c.r())
		waitGoroutines(t, start, c.name)
		if c.want != "" {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: error %v, want %s", c.name, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(req.Dataset.XFlat) != n || req.Dataset.Genes != n || req.Options.B != 7 {
			t.Fatalf("%s: %d cells, genes %d, b %d", c.name, len(req.Dataset.XFlat), req.Dataset.Genes, req.Options.B)
		}
		for i, v := range req.Dataset.XFlat {
			if want := float64(i%1000)/8 - 3; v != want {
				t.Fatalf("%s: cell %d = %v, want %v", c.name, i, v, want)
			}
		}
	}
}

// TestFlatPipeWorkers: an array that fits in one chunk, and any array
// scanned with one worker, parses on the calling goroutine; a longer one
// starts workers, and stop returns only once they have exited.
func TestFlatPipeWorkers(t *testing.T) {
	long := strings.Join(flatCellsText(1000), ",") + "]}"
	for _, c := range []struct {
		text           string
		chunk, workers int
		started        bool
	}{
		{"1,2,null,3]}", 64, 4, false},
		{long, 1 << 20, 4, false},
		{long, 64, 1, false},
		{long, 64, 4, true},
	} {
		start := runtime.NumGoroutine()
		p := newFlatPipe(bufio.NewReader(strings.NewReader(c.text)), 0, c.chunk, c.workers)
		cells, err := p.run()
		p.stop()
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Count(c.text, ",") + 1; len(cells) != want {
			t.Fatalf("%d-byte text: %d cells, want %d", len(c.text), len(cells), want)
		}
		if (p.started > 0) != c.started {
			t.Errorf("%d-byte text at %d-byte chunks, %d workers: %d workers started", len(c.text), c.chunk, c.workers, p.started)
		}
		waitGoroutines(t, start, "stop")
	}
}
