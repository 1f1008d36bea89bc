package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"testing"

	"sprint/internal/jobs"
)

// viaEncodingJSON is the reference: the bytes writeJSON sends for v.
func viaEncodingJSON(t testing.TB, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// sameDocument fails unless appendResult writes r exactly as encoding/json
// does, naming the first differing byte.
func sameDocument(t testing.TB, name string, r *ResultJSON) {
	t.Helper()
	want := viaEncodingJSON(t, r)
	got := appendResult(nil, r)
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	t.Fatalf("%s: documents differ at byte %d of %d/%d:\n got  …%q\n want …%q",
		name, i, len(got), len(want), got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

// edgeFloats are the values whose text is easiest to get wrong: signed
// zero, NaN payloads, infinities, subnormals, the 'g' exponent switches
// (1e21 and 1e-7 print with exponents, 1e20 and 1e-6 without) and the
// extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.5, -3.0000000000000004,
	1e20, 1e21, -1e21, 1e-6, 1e-7, 123456789012345678, 1.0 / 128, 127.0 / 128,
	5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8000000000000), // negative quiet NaN
	math.Float64frombits(0x7fffffffffffffff), // all-ones payload
}

// hostileStrings exercise every branch of JSON string escaping: quotes
// and backslashes, each short escape, the other control bytes, DEL (not
// escaped), HTML metacharacters (not escaped with HTML escaping off),
// invalid and truncated UTF-8, U+2028/U+2029 and valid multibyte text.
var hostileStrings = []string{
	"",
	"job-0123456789abcdef",
	`<&>"\/`,
	"\x00\x01\x08\x09\x0a\x0b\x0c\x0d\x1b\x1f\x20\x7f",
	"\xff", "a\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
	"\xe2\x80\xa8x\xe2\x80\xa9", "\xc3\xa9\xe6\x97\xa5\xf0\x9f\x8e\x89",
	"</script>\xe2\x80\xa8<&>\x01\xff\xe2\x80\xa9",
}

// fillEveryField sets every ResultJSON field to a non-zero value of its
// type, distinct per field, so a field the writer omits or misplaces is a
// byte difference.  A field of a type this switch does not know fails the
// test: appendResult has no line for it either.
func fillEveryField(t testing.TB, r *ResultJSON, floats []float64, s string) {
	t.Helper()
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		k := int64(i + 1)
		switch f.Interface().(type) {
		case string:
			f.SetString(s + strconv.Itoa(i))
		case bool:
			f.SetBool(true)
		case int, int64:
			f.SetInt(-k * 1_000_000_007)
		case Floats:
			rot := append(Floats(nil), floats[i%len(floats):]...)
			f.Set(reflect.ValueOf(append(rot, floats[:i%len(floats)]...)))
		case []int:
			f.Set(reflect.ValueOf([]int{int(k), -1, 0, math.MaxInt32, math.MinInt32}))
		case []int64:
			f.Set(reflect.ValueOf([]int64{k, math.MaxInt64, math.MinInt64, 0}))
		default:
			t.Fatalf("ResultJSON.%s has type %s, which neither appendResult nor this test writes",
				v.Type().Field(i).Name, f.Type())
		}
	}
}

// TestResultDocumentMatchesEncodingJSON holds the direct writer to
// encoding/json's bytes: every field set, each field zeroed in turn (the
// omitempty cases and nil arrays), nil against empty slices, edge values
// and hostile strings, and p-value grids that repeat values through the
// memo, including enough distinct values to collide in it.
func TestResultDocumentMatchesEncodingJSON(t *testing.T) {
	for _, s := range hostileStrings {
		var full ResultJSON
		fillEveryField(t, &full, edgeFloats, s)
		sameDocument(t, fmt.Sprintf("every field, strings %q", s), &full)
		v := reflect.ValueOf(&full).Elem()
		for i := 0; i < v.NumField(); i++ {
			r := full
			f := reflect.ValueOf(&r).Elem().Field(i)
			f.Set(reflect.Zero(f.Type()))
			sameDocument(t, fmt.Sprintf("%s zeroed, strings %q", v.Type().Field(i).Name, s), &r)
		}
	}

	sameDocument(t, "zero document", &ResultJSON{})
	sameDocument(t, "empty slices", &ResultJSON{
		Stat: Floats{}, RawP: Floats{}, AdjP: Floats{}, Order: []int{}, BEffective: []int64{},
	})
	sameDocument(t, "nil floats, empty order", &ResultJSON{Order: []int{}, Mode: "sequential", PlannedB: 1})

	rng := rand.New(rand.NewSource(1))
	const rows = 6102
	grid := func(den int) Floats {
		f := make(Floats, rows)
		for i := range f {
			f[i] = float64(1+rng.Intn(den)) / float64(den)
		}
		return f
	}
	arbitrary := make(Floats, rows)
	for i := range arbitrary {
		arbitrary[i] = math.Float64frombits(rng.Uint64())
	}
	normal := make(Floats, rows)
	for i := range normal {
		normal[i] = rng.NormFloat64() * 3
	}
	for _, tc := range []struct {
		name            string
		stat, raw, adjP Floats
	}{
		{"B=128 grid", normal, grid(128), grid(128)},
		{"B=10000 grid", normal, grid(10000), grid(10000)},
		{"arbitrary bits", arbitrary, arbitrary[1:], grid(7)},
		{"edge values repeated", append(append(Floats{}, edgeFloats...), edgeFloats...), grid(3), edgeFloats},
	} {
		r := ResultJSON{ID: "job", Key: "key", Stat: tc.stat, RawP: tc.raw, AdjP: tc.adjP, B: 128, NProcs: 2}
		sameDocument(t, tc.name, &r)
	}
}

// goldenResults are the two documents checked in as
// testdata/result_golden.json: one exact, one sequential.
func goldenResults() []ResultJSON {
	return []ResultJSON{{
		ID:       "b5d0c0a1e7f24c3d",
		Key:      "9c1e5f3a7b2d4e6f8a0b1c2d3e4f5a6b7c8d9e0f1a2b3c4d5e6f7a8b9c0d1e2f",
		Stat:     Floats{2.5, math.Copysign(0, -1), math.NaN(), 1e21, 1e-7, 5e-324, -3.0000000000000004, math.Inf(1)},
		RawP:     Floats{1.0 / 128, 0.5, math.NaN(), 1, 1.0 / 128, 127.0 / 128, 3.0 / 128, 1.0 / 128},
		AdjP:     Floats{1.0 / 128, 0.5, math.NaN(), 1, 1.0 / 128, 1, 5.0 / 128, 1.0 / 128},
		Order:    []int{5, 0, 4, 7, 6, 1, 3, 2},
		B:        128,
		Complete: false,
		NProcs:   2,
		CacheHit: true,
	}, {
		ID:         "<&>\"\\\x01\xff\xe2\x80\xa8",
		Key:        "seq\tkey",
		Stat:       Floats{-1.25, 0.1, 1e20},
		RawP:       Floats{0.001, 0.2, 1},
		AdjP:       Floats{0.003, 0.2, 1},
		Order:      nil,
		B:          1000000,
		Complete:   false,
		NProcs:     1,
		Mode:       "sequential",
		PlannedB:   1000000,
		BEffective: []int64{1000000, 5000, 1000},
		PermsSaved: 1994000,
	}}
}

// TestResultGolden pins the wire bytes to a checked-in file, written once
// by encoding/json: drift in appendResult is caught here even if a later
// encoding/json drifts the same way.
func TestResultGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/result_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, r := range goldenResults() {
		got = appendResult(got, &r)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result documents drifted from testdata/result_golden.json:\n got  %q\n want %q", got, want)
	}
}

// TestResultHandlerSendsDirectDocument reads results over HTTP, exact and
// sequential: the body carries a matching Content-Length and equals
// encoding/json's bytes for the document it decodes to.
func TestResultHandlerSendsDirectDocument(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{})
	seq := seqDataset(t)
	seqBody, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"x": seq.X, "labels": seq.Labels},
		"options": map[string]any{"b": 4000, "seed": 5, "mode": "sequential"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"exact":      submitBody(t, testDataset(t), 300, 1, 100),
		"sequential": seqBody,
	} {
		var st StatusJSON
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st); code != http.StatusAccepted {
			t.Fatalf("%s: submit code %d", name, code)
		}
		if fin := pollTerminal(t, ts.URL, st.ID); fin.State != "done" {
			t.Fatalf("%s: final status %+v", name, fin)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: code %d, content type %q", name, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", name, cl, len(got))
		}
		var doc ResultJSON
		if err := json.Unmarshal(got, &doc); err != nil {
			t.Fatal(err)
		}
		if (name == "sequential") != (doc.Mode == "sequential") || len(doc.Stat) == 0 {
			t.Fatalf("%s: decoded mode %q with %d rows", name, doc.Mode, len(doc.Stat))
		}
		if want := viaEncodingJSON(t, &doc); !bytes.Equal(got, want) {
			t.Fatalf("%s: handler body differs from encoding/json:\n got  %q\n want %q", name, got, want)
		}
	}
}

// FuzzResultDocument is differential against encoding/json on arbitrary
// float bits, strings and slice shapes.  Every 8 bytes of bits is one
// value; the arrays cycle through the values from different starts, so
// repeats reach the memo.  Each bit of shape makes one slice nil.
func FuzzResultDocument(f *testing.F) {
	seed := make([]byte, 0, 8*len(edgeFloats))
	for _, v := range edgeFloats {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, "job", "key", "", uint16(40), uint8(0), int64(128))
	f.Add(seed, hostileStrings[2], hostileStrings[3], "sequential", uint16(3), uint8(0x15), int64(-1))
	f.Add([]byte{}, hostileStrings[7], "", "\xff", uint16(0), uint8(0x0a), int64(0))
	f.Fuzz(func(t *testing.T, bits []byte, id, key, mode string, n uint16, shape uint8, b int64) {
		var vals []float64
		for len(bits) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(bits)))
			bits = bits[8:]
		}
		if len(vals) == 0 {
			vals = []float64{0}
		}
		length := int(n % 2048)
		next := 0
		slice := func(bit uint) bool { return shape&(1<<bit) == 0 }
		floats := func(bit uint) Floats {
			if !slice(bit) {
				return nil
			}
			out := make(Floats, length)
			for i := range out {
				out[i] = vals[next%len(vals)]
				next++
			}
			return out
		}
		r := ResultJSON{
			ID: id, Key: key, Mode: mode,
			Stat: floats(0), RawP: floats(1), AdjP: floats(2),
			B: b, PlannedB: b >> 1, PermsSaved: ^b, NProcs: int(int32(b)),
			Complete: shape&0x40 != 0, CacheHit: shape&0x80 != 0,
		}
		if slice(3) {
			r.Order = make([]int, length)
			for i := range r.Order {
				r.Order[i] = int(int64(math.Float64bits(vals[i%len(vals)])))
			}
		}
		if slice(4) {
			r.BEffective = make([]int64, length)
			for i := range r.BEffective {
				r.BEffective[i] = int64(math.Float64bits(vals[(i+1)%len(vals)]))
			}
		}
		sameDocument(t, "fuzz", &r)
	})
}

// BenchmarkWriteResult times the result document at the bench's shape,
// 6102 rows, for a B = 128 grid, a B = 10⁴ grid and a sequential job,
// written directly and through encoding/json.
func BenchmarkWriteResult(b *testing.B) {
	const rows = 6102
	rng := rand.New(rand.NewSource(7))
	doc := func(den func(i int) int) *ResultJSON {
		r := &ResultJSON{
			ID: "b5d0c0a1e7f24c3d", Key: "9c1e5f3a7b2d4e6f8a0b1c2d3e4f5a6b7c8d9e0f1a2b3c4d5e6f7a8b9c0d1e2f",
			Stat: make(Floats, rows), RawP: make(Floats, rows), AdjP: make(Floats, rows),
			Order: rng.Perm(rows), NProcs: 2,
		}
		for i := 0; i < rows; i++ {
			d := den(i)
			r.Stat[i] = rng.NormFloat64() * 3
			k := 1 + rng.Intn(d)
			r.RawP[i] = float64(k) / float64(d)
			r.AdjP[i] = float64(k+rng.Intn(d-k+1)) / float64(d)
		}
		return r
	}
	b128 := doc(func(int) int { return 128 })
	b128.B = 128
	b1e4 := doc(func(int) int { return 10000 })
	b1e4.B = 10000
	beff := make([]int64, rows)
	for i := range beff {
		beff[i] = []int64{1000, 2000, 5000, 20000, 1000000}[rng.Intn(5)]
	}
	seq := doc(func(i int) int { return int(beff[i]) })
	seq.B, seq.Mode, seq.PlannedB, seq.BEffective, seq.PermsSaved = 1000000, "sequential", 1000000, beff, 4321

	for _, tc := range []struct {
		name string
		doc  *ResultJSON
	}{{"b128", b128}, {"b10000", b1e4}, {"sequential", seq}} {
		b.Run(tc.name+"/append", func(b *testing.B) {
			buf := appendResult(nil, tc.doc)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendResult(buf[:0], tc.doc)
			}
		})
		b.Run(tc.name+"/encoding-json", func(b *testing.B) {
			enc := json.NewEncoder(io.Discard)
			enc.SetEscapeHTML(false)
			b.SetBytes(int64(len(appendResult(nil, tc.doc))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(tc.doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestZeroStatisticServedAsZero: rows whose classes have equal means
// have a zero t statistic, and the result document prints it as 0, not
// -0, under both t tests.
func TestZeroStatisticServedAsZero(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{})
	for _, test := range []string{"t", "t.equalvar"} {
		body, err := json.Marshal(map[string]any{
			"dataset": map[string]any{"x": [][]float64{{1, 2, 3, 1, 2, 3}, {5, 6, 7, 7, 6, 5}}, "labels": []int{0, 0, 0, 1, 1, 1}},
			"options": map[string]any{"b": 0, "test": test},
		})
		if err != nil {
			t.Fatal(err)
		}
		var st StatusJSON
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st); code != http.StatusAccepted {
			t.Fatalf("%s: submit code %d", test, code)
		}
		if fin := pollTerminal(t, ts.URL, st.ID); fin.State != "done" {
			t.Fatalf("%s: final status %+v", test, fin)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(got, []byte(`"stat":[0,0]`)) {
			t.Errorf("%s: result document %s, want \"stat\":[0,0]", test, got)
		}
	}
}
