package httpapi

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// datasetMatrixOf flattens a test dataset into the engine layout.
func datasetMatrixOf(t *testing.T, data *microarray.Dataset) matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(data.X)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// doRaw performs a request with explicit headers and returns the response
// code and decoded JSON body.
func doRaw(t *testing.T, method, url string, body []byte, hdr map[string]string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestDatasetWorkflowOverHTTP walks the whole dataset plane end to end:
// binary upload, dedup re-upload, dataset-id submission whose result is
// bitwise identical to an x_flat submission of the same cells, list /
// info / delete.
func TestDatasetWorkflowOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1, DefaultNProcs: 1})
	data := testDataset(t)
	const B = 300

	// Baseline: the x_flat path.
	var flatSt StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", flatSubmitBody(t, data, B, 1), &flatSt); code != http.StatusAccepted {
		t.Fatalf("flat submit code %d", code)
	}
	pollTerminal(t, ts.URL, flatSt.ID)
	var flatRes ResultJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+flatSt.ID+"/result", nil, &flatRes); code != http.StatusOK {
		t.Fatalf("flat result code %d", code)
	}

	// Binary upload.
	enc, err := matrix.EncodeBytes(datasetMatrixOf(t, data), nil, nil, matrix.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	var info jobs.DatasetInfo
	if code := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets", enc,
		map[string]string{"Content-Type": SPBContentType}, &info); code != http.StatusCreated {
		t.Fatalf("binary upload code %d", code)
	}
	// Re-upload dedups: 200, same id.
	var info2 jobs.DatasetInfo
	if code := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets", enc,
		map[string]string{"Content-Type": SPBContentType}, &info2); code != http.StatusOK {
		t.Fatalf("re-upload code %d", code)
	}
	if info2.ID != info.ID {
		t.Fatalf("re-upload id %s != %s", info2.ID, info.ID)
	}

	// Submit by dataset id with a different seed (same seed would be a
	// result-cache hit and prove nothing about the compute path).
	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"dataset_id": info.ID, "labels": data.Labels},
		"options": map[string]any{"b": B, "seed": 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dsSt StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &dsSt); code != http.StatusAccepted {
		t.Fatalf("dataset submit code %d", code)
	}
	if fin := pollTerminal(t, ts.URL, dsSt.ID); fin.State != "done" {
		t.Fatalf("dataset job finished %+v", fin)
	}

	// And the key-sharing check: same options as the flat job must share
	// its content key (and therefore hit its cached result).
	sameBody, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"dataset_id": info.ID, "labels": data.Labels},
		"options": map[string]any{"b": B, "seed": 13},
		"nprocs":  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sameSt StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", sameBody, &sameSt); code != http.StatusAccepted {
		t.Fatalf("same-options dataset submit code %d", code)
	}
	if sameSt.Key != flatSt.Key {
		t.Fatalf("dataset-id key %s != x_flat key %s", sameSt.Key, flatSt.Key)
	}
	if sameSt.State != "done" || !sameSt.CacheHit {
		t.Fatalf("same-options dataset submission not a cache hit: %+v", sameSt)
	}
	var sameRes ResultJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sameSt.ID+"/result", nil, &sameRes); code != http.StatusOK {
		t.Fatalf("dataset result code %d", code)
	}
	for i := range flatRes.AdjP {
		if math.Float64bits(sameRes.AdjP[i]) != math.Float64bits(flatRes.AdjP[i]) {
			t.Fatalf("AdjP[%d]: dataset %v != flat %v", i, sameRes.AdjP[i], flatRes.AdjP[i])
		}
	}

	// List and info.
	var list DatasetListJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &list); code != http.StatusOK {
		t.Fatalf("list code %d", code)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].ID != info.ID {
		t.Fatalf("list %+v, want the one uploaded dataset", list)
	}
	var one jobs.DatasetInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+info.ID, nil, &one); code != http.StatusOK {
		t.Fatalf("info code %d", code)
	}
	if one.Genes != len(data.X) || one.Samples != len(data.X[0]) {
		t.Fatalf("info shape %dx%d, want %dx%d", one.Genes, one.Samples, len(data.X), len(data.X[0]))
	}

	// Delete, then the id is gone for info and submissions.
	if code := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/"+info.ID, nil, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete code %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("info after delete code %d", code)
	}
	freshBody, _ := json.Marshal(map[string]any{
		"dataset": map[string]any{"dataset_id": info.ID, "labels": data.Labels},
		"options": map[string]any{"b": B, "seed": 7777},
	})
	var e map[string]string
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", freshBody, &e); code != http.StatusNotFound {
		t.Fatalf("submit after delete code %d (%v)", code, e)
	}
}

// TestDatasetUploadJSONSharesID: a JSON x_flat upload must produce the
// same content id as the binary upload of the same cells.
func TestDatasetUploadJSONSharesID(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	data := testDataset(t)
	m := datasetMatrixOf(t, data)

	enc, err := matrix.EncodeBytes(m, nil, nil, matrix.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	var binInfo jobs.DatasetInfo
	if code := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets", enc,
		map[string]string{"Content-Type": SPBContentType}, &binInfo); code != http.StatusCreated {
		t.Fatalf("binary upload code %d", code)
	}

	genes, samples := m.Rows, m.Cols
	flat := make([]*float64, genes*samples)
	for j := 0; j < samples; j++ {
		for i := 0; i < genes; i++ {
			if v := m.At(i, j); !math.IsNaN(v) {
				vv := v
				flat[j*genes+i] = &vv
			}
		}
	}
	jsonBody, err := json.Marshal(map[string]any{"x_flat": flat, "genes": genes, "samples": samples})
	if err != nil {
		t.Fatal(err)
	}
	var jsonInfo jobs.DatasetInfo
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets", jsonBody, &jsonInfo); code != http.StatusOK {
		t.Fatalf("json re-upload code %d (want 200: same content already registered)", code)
	}
	if jsonInfo.ID != binInfo.ID {
		t.Fatalf("json upload id %s != binary id %s", jsonInfo.ID, binInfo.ID)
	}
}

// TestGzipSubmission: a gzip-compressed submission body must decode and
// run exactly like its identity-encoded twin.
func TestGzipSubmission(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1, DefaultNProcs: 1})
	data := testDataset(t)
	body := submitBody(t, data, 200, 1, 100)

	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var st StatusJSON
	if code := doRaw(t, http.MethodPost, ts.URL+"/v1/jobs", zbuf.Bytes(),
		map[string]string{"Content-Encoding": "gzip"}, &st); code != http.StatusAccepted {
		t.Fatalf("gzip submit code %d", code)
	}
	if fin := pollTerminal(t, ts.URL, st.ID); fin.State != "done" {
		t.Fatalf("gzip job finished %+v", fin)
	}

	// The identity twin must share the content key (identical analysis).
	var plain StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &plain); code != http.StatusAccepted {
		t.Fatalf("plain submit code %d", code)
	}
	if plain.Key != st.Key {
		t.Fatalf("gzip key %s != plain key %s", st.Key, plain.Key)
	}
	if !plain.CacheHit {
		t.Fatalf("identity twin of gzip submission missed the cache: %+v", plain)
	}
}

// TestGzipBodyBounds: the decompressed size is bounded by MaxBodyBytes,
// so a small compressed body cannot balloon past the limit; and unknown
// encodings are rejected up front.
func TestGzipBodyBounds(t *testing.T) {
	srv, err := New(Config{Jobs: jobs.Config{Workers: 1}, MaxBodyBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerFor(t, srv)

	// A ~1 MB valid JSON submission compresses under the 4 KB compressed
	// bound (the cells are repetitive): it must still be rejected on the
	// decompressed side, not decoded to completion.
	var big bytes.Buffer
	big.WriteString(`{"dataset":{"genes":16000,"samples":8,"x_flat":[0.123456`)
	for i := 1; i < 16000*8; i++ {
		big.WriteString(",0.123456")
	}
	big.WriteString(`],"labels":[0,0,0,0,1,1,1,1]}}`)
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(big.Bytes()); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if zbuf.Len() >= 4096 {
		t.Fatalf("test premise broken: compressed body is %d bytes", zbuf.Len())
	}
	var e map[string]string
	if code := doRaw(t, http.MethodPost, ts.URL+"/v1/jobs", zbuf.Bytes(),
		map[string]string{"Content-Encoding": "gzip"}, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("ballooning gzip body code %d, want 413 (%v)", code, e)
	}

	if code := doRaw(t, http.MethodPost, ts.URL+"/v1/jobs", []byte("{}"),
		map[string]string{"Content-Encoding": "br"}, &e); code != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown encoding code %d, want 415", code)
	}
}

// newTestServerFor wraps an existing Server in an httptest listener.
func newTestServerFor(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// TestStreamingDecodeBoundsMemory is the regression guard for the
// streaming submit decoder: decoding a large x_flat body must allocate
// far less than the buffered json.Unmarshal path, which materialises the
// whole body text inside the decoder on top of the float slice.
func TestStreamingDecodeBoundsMemory(t *testing.T) {
	// ~200k cells ≈ 3.6 MB of JSON: big enough that the body-text buffer
	// dominates the buffered path's allocations.
	const genes, samples = 5000, 40
	flat := make(Floats, genes*samples)
	for i := range flat {
		flat[i] = float64(i%997) / 7
	}
	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"x_flat": flat, "genes": genes, "samples": samples,
			"labels": make([]int, samples)},
		"options": map[string]any{"b": 100},
	})
	if err != nil {
		t.Fatal(err)
	}

	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var streamed *SubmitRequest
	streamAlloc := measure(func() {
		var err error
		streamed, err = DecodeSubmit(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
	})
	var buffered SubmitRequest
	bufferedAlloc := measure(func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&buffered); err != nil {
			t.Fatal(err)
		}
	})

	// Semantics first: the streaming decoder must produce exactly the
	// buffered decoder's request.
	if len(streamed.Dataset.XFlat) != len(buffered.Dataset.XFlat) {
		t.Fatalf("streamed %d cells, buffered %d", len(streamed.Dataset.XFlat), len(buffered.Dataset.XFlat))
	}
	for i := range flat {
		if math.Float64bits(streamed.Dataset.XFlat[i]) != math.Float64bits(buffered.Dataset.XFlat[i]) {
			t.Fatalf("cell %d: streamed %v buffered %v", i, streamed.Dataset.XFlat[i], buffered.Dataset.XFlat[i])
		}
	}
	if streamed.Dataset.Genes != genes || streamed.Dataset.Samples != samples || streamed.Options.B != 100 {
		t.Fatalf("streamed request fields diverged: %+v", streamed)
	}

	// Memory second: TotalAlloc is cumulative (GC-independent), so the
	// comparison is stable.  The buffered path allocates the body text
	// (~3.6 MB) on top of everything the streaming path allocates; a
	// 40%-of-buffered bound leaves a wide margin while still failing if
	// someone reintroduces whole-value buffering.
	if streamAlloc > bufferedAlloc*2/5 {
		t.Errorf("streaming decode allocated %d bytes vs buffered %d — whole-body buffering is back?",
			streamAlloc, bufferedAlloc)
	}
}

// TestFlatShapeAfterArray: an x_flat array whose genes and samples follow
// it decodes to the same cells as one whose shape comes first, across the
// scanner's block boundaries, and costs at most its cells twice over (the
// blocks, then the joined slice) rather than append growth's repeated
// copies.
func TestFlatShapeAfterArray(t *testing.T) {
	for _, n := range []int{0, 1, 1024, 1025, 5*flatBlockMax + 3} {
		cells := make([]string, n)
		for i := range cells {
			cells[i] = strconv.FormatFloat(float64(i)/7-3, 'g', -1, 64)
		}
		if n > 1 {
			cells[n/2] = "null"
		}
		arr := `"x_flat":[` + strings.Join(cells, ",") + `]`
		shape := fmt.Sprintf(`"genes":%d,"samples":1`, n)
		first, err := DecodeSubmit(strings.NewReader(`{"dataset":{` + shape + `,` + arr + `}}`))
		if err != nil {
			t.Fatal(err)
		}
		body := strings.NewReader(`{"dataset":{` + arr + `,` + shape + `}}`)
		var before, end runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		after, err := DecodeSubmit(body)
		runtime.ReadMemStats(&end)
		if err != nil {
			t.Fatal(err)
		}
		got, want := after.Dataset.XFlat, first.Dataset.XFlat
		if len(got) != n || len(want) != n || after.Dataset.Genes != n {
			t.Fatalf("n=%d: decoded %d cells (shape first: %d), genes %d", n, len(got), len(want), after.Dataset.Genes)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d cell %d: shape after %v, shape first %v", n, i, got[i], want[i])
			}
		}
		if n > flatBlockMax {
			if alloc := end.TotalAlloc - before.TotalAlloc; alloc > uint64(n)*8*5/2 {
				t.Errorf("n=%d: decode allocated %d bytes, more than 2.5× the %d cell bytes", n, alloc, n*8)
			}
		}
	}
}

// TestBinaryIngestFasterThanJSON guards the headline acceptance criterion
// at a very safe margin: the binary decode of the paper-shaped matrix
// must beat the streaming JSON decode of the same cells by at least 2×
// (EXPERIMENTS.md records the real ratio, which is far higher).
func TestBinaryIngestFasterThanJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	const genes, samples = 6102, 76
	m := matrix.New(genes, samples)
	for i := range m.Data {
		m.Data[i] = float64(i%1009)/3 - 100
	}
	enc, err := matrix.EncodeBytes(m, nil, nil, matrix.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	flat := make(Floats, genes*samples)
	for j := 0; j < samples; j++ {
		for i := 0; i < genes; i++ {
			flat[j*genes+i] = m.At(i, j)
		}
	}
	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"x_flat": flat, "genes": genes, "samples": samples,
			"labels": make([]int, samples)},
	})
	if err != nil {
		t.Fatal(err)
	}

	work := make([]byte, len(enc))
	binNs := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, enc)
			if _, err := matrix.DecodeBytes(work); err != nil {
				b.Fatal(err)
			}
		}
	}).NsPerOp()
	jsonNs := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSubmit(bytes.NewReader(body)); err != nil {
				b.Fatal(err)
			}
		}
	}).NsPerOp()
	if binNs*2 > jsonNs {
		t.Errorf("binary ingest %d ns vs JSON %d ns: less than 2× faster", binNs, jsonNs)
	}
	t.Logf("ingest 6102×76: binary %d ns, streaming JSON %d ns (%.1f×)", binNs, jsonNs, float64(jsonNs)/float64(binNs))
}

// TestFlatScannerRejectsNonJSONNumbers: the byte-level x_flat scanner
// must hold the line of the JSON number grammar — strconv.ParseFloat
// alone would admit NaN, Infinity, hex floats and digit underscores that
// the buffered decoder rejects.
func TestFlatScannerRejectsNonJSONNumbers(t *testing.T) {
	for _, bad := range []string{"NaN", "Infinity", "-Infinity", "0x1p4", "1_000", "+1", ".5", "1.", "1e", "01", "-", "nulL"} {
		body := []byte(`{"dataset":{"x_flat":[` + bad + `]}}`)
		if _, err := DecodeSubmit(bytes.NewReader(body)); err == nil {
			t.Errorf("x_flat cell %q accepted by the streaming decoder", bad)
		}
	}
	for _, good := range []string{"0", "-0", "1.5", "-2e10", "3E-7", "0.25", "6102e2"} {
		body := []byte(`{"dataset":{"x_flat":[` + good + `]}}`)
		if _, err := DecodeSubmit(bytes.NewReader(body)); err != nil {
			t.Errorf("x_flat cell %q rejected: %v", good, err)
		}
	}
}

// TestFlatHintBounded: a tiny body claiming an enormous genes×samples
// shape must not make the decoder attempt a matching allocation (the
// historical bug was a fatal out-of-memory runtime.throw on a 60-byte
// request).
func TestFlatHintBounded(t *testing.T) {
	body := []byte(`{"dataset":{"genes":4194303,"samples":4194303,"x_flat":[1]}}`)
	req, err := DecodeSubmit(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Dataset.XFlat) != 1 {
		t.Fatalf("decoded %d cells, want 1", len(req.Dataset.XFlat))
	}
	// The shape lie is caught by submission validation, not the decoder.
	_, err = jobs.NewManager(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDatasetMatrixShapeWrapRefused: an x_flat upload whose genes ×
// samples product wraps the int range to its cell count is refused.  The
// check runs on the function, never through a daemon: before the fix the
// upload was accepted as a matrix of 2⁶⁴ cells over an empty slice.
func TestDatasetMatrixShapeWrapRefused(t *testing.T) {
	half := 1 << (strconv.IntSize / 2) // half*half wraps to 0
	for _, d := range []DatasetJSON{
		{XFlat: Floats{}, Genes: half, Samples: half},
		{XFlat: Floats{}, Genes: 1 << (strconv.IntSize - 2), Samples: 4},
	} {
		if m, err := datasetMatrix(d); err == nil {
			t.Errorf("datasetMatrix accepted %d cells as %d × %d", len(m.Data), m.Rows, m.Cols)
		}
	}
}
