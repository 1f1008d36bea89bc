package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sprint/internal/httpapi"
	"sprint/internal/matrix"
)

func TestQuantile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[100-i] = float64(i) // 0..100, unsorted on purpose
	}
	for _, tc := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.5, 50, true},
		{0.25, 25, true},
		{0, 0, true},
		{0.9, 90, true},   // 10 samples beyond
		{0.91, 0, false},  // 9 beyond
		{0.99, 0, false},  // 1 beyond
		{1.01, 0, false},  // not a quantile
		{-0.01, 0, false}, // not a quantile
	} {
		got, ok := quantile(xs, tc.q)
		if ok != tc.ok || (ok && math.Abs(got-tc.want) > 1e-9) {
			t.Errorf("quantile(q=%v) = %v, %v; want %v, %v", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples must be refused")
	}
	// Interpolation between order statistics, and the median of few.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	// 15 samples: the median is fine, p90 has only 1 beyond it.
	few := xs[:15]
	if _, ok := quantile(few, 0.5); !ok {
		t.Error("median of 15 samples refused")
	}
	if v := tail(few, 0.9); v != 0 {
		t.Errorf("p90 of 15 samples = %v, want it refused (0)", v)
	}
	// Exactly 10 beyond p90 needs 100 samples; 99 is one short.
	if _, ok := quantile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, ok := quantile(xs[:100], 0.9); !ok {
		t.Error("p90 of 100 samples has 10 beyond it and must be reported")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartS: 0, EndS: 10},
		{ID: 2, Parent: 1, Name: "submit", StartS: 1, EndS: 3},
		{ID: 3, Parent: 1, Name: "poll", StartS: 2, EndS: 6},       // overlaps submit
		{ID: 4, Parent: 1, Name: "result", StartS: 8, EndS: 12},    // sticks out of the parent
		{ID: 5, Parent: 3, Name: "poll.get", StartS: 2.5, EndS: 3}, // grandchild: not op's
		{ID: 6, Parent: 9, Name: "orphan", StartS: 0, EndS: 1},
	}
	got := selfTimes(spans)
	want := map[spanID]float64{
		1: 10 - (5 + 2), // children cover [1,6] and [8,10]
		2: 2,
		3: 4 - 0.5,
		4: 4,
		5: 0.5,
		6: 1,
	}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var nilTracer *tracer
	nilTracer.begin("x", 0, 0)() // must not panic
	if id := nilTracer.open("x", 0, 0); id != 0 || nilTracer.close(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer()
	root := tr.open("root", 0, 7)
	tr.begin("child", root, 7)()
	tr.close(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != 2 {
		t.Fatalf("trace file: %v, %d spans", err, len(doc.Spans))
	}
}

func TestStampDiffMS(t *testing.T) {
	ms, ok := stampDiffMS("2026-01-02T03:04:05.000001Z", "2026-01-02T03:04:05.250001Z")
	if !ok || math.Abs(ms-250) > 1e-9 {
		t.Errorf("diff = %v, %v; want 250 ms", ms, ok)
	}
	if ms, ok := stampDiffMS("2026-01-02T03:04:06Z", "2026-01-02T03:04:05.5Z"); !ok || ms != -500 {
		t.Errorf("negative diff = %v, %v; want -500", ms, ok)
	}
	if _, ok := stampDiffMS("", "2026-01-02T03:04:05Z"); ok {
		t.Error("an absent stamp must be refused")
	}
	// The op record derives queue wait, run and tail from one status.
	fin := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	out := &outcome{
		start: fin.Add(-40 * time.Millisecond), end: fin.Add(3 * time.Millisecond),
		status: httpapi.StatusJSON{
			SubmittedAt: fin.Add(-30 * time.Millisecond).Format(time.RFC3339Nano),
			StartedAt:   fin.Add(-20 * time.Millisecond).Format(time.RFC3339Nano),
			FinishedAt:  fin.Format(time.RFC3339Nano),
		},
	}
	r := newOpRecord(&workload{rows: 3}, 0, out)
	if math.Abs(r.queueWaitMS-10) > 1e-9 || math.Abs(r.runMS-20) > 1e-9 || math.Abs(r.tailMS-3) > 1e-9 || math.Abs(r.ms-43) > 1e-9 {
		t.Errorf("record = %+v", r)
	}
}

func TestBalancedRelabellings(t *testing.T) {
	w := &workload{rows: 4, cols: 10, relabel: true}
	in, err := newInputs(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	// C(10,5) = 252 labellings exist; ask for most of them, so the
	// re-draw on a duplicate is exercised.
	for i := 0; i < 200; i++ {
		l := in.jobLabels(i)
		ones := 0
		for _, v := range l {
			ones += v
		}
		if len(l) != 10 || ones != 5 {
			t.Fatalf("job %d: labels %v do not keep the class sizes", i, l)
		}
		key := fmt.Sprint(l)
		if seen[key] {
			t.Fatalf("job %d: relabelling %v handed out twice", i, l)
		}
		seen[key] = true
		if !reflect.DeepEqual(l, in.jobLabels(i)) {
			t.Fatalf("job %d: relabelling is not stable", i)
		}
	}
	// Same seed, same relabellings; the generator is a pure function of
	// (seed, index) as long as indices are asked for in the same order.
	in2, _ := newInputs(w, 42)
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(in.jobLabels(i), in2.jobLabels(i)) {
			t.Fatalf("job %d: relabelling differs between two generators of one seed", i)
		}
	}
}

func TestFlatBodyEqualsJSONEncode(t *testing.T) {
	w := &workload{rows: 7, cols: 6, kind: opIngestJSON, opt: httpapi.OptionsJSON{Test: "t", Side: "abs", B: 64}}
	in, err := newInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	in.x.Data[5] = 1e-7  // exponent notation
	in.x.Data[6] = -12.5 // a negative
	in.flat = newFlatBody(in.x, in.labels)
	for i := 0; i < 50; i++ {
		got, err := in.flatJobBody(i)
		if err != nil {
			t.Fatal(err)
		}
		m := in.variantMatrix(i)
		want, err := json.Marshal(httpapi.SubmitRequest{
			Dataset: httpapi.DatasetJSON{
				XFlat: matrix.Transpose(m.Data, m.Rows, m.Cols), Genes: m.Rows, Samples: m.Cols, Labels: in.labels,
			},
			Options: in.options(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: built body differs from encoding/json\n got %s\nwant %s", i, got, want)
		}
		// And the server's own decoder reads back the variant matrix.
		req, err := httpapi.DecodeSubmit(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual([]float64(req.Dataset.XFlat), matrix.Transpose(m.Data, m.Rows, m.Cols)) {
			t.Fatalf("op %d: decoded x_flat is not the variant matrix", i)
		}
	}
}

func TestVariantSPBDecodesToVariantMatrix(t *testing.T) {
	w := &workload{rows: 9, cols: 4}
	in, err := newInputs(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]bool{}
	for i := 0; i < 30; i++ {
		f, err := matrix.DecodeBytes(in.variantSPB(i))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want := in.variantMatrix(i)
		if !reflect.DeepEqual(f.M.Data, want.Data) || f.M.Rows != want.Rows || f.M.Cols != want.Cols {
			t.Fatalf("op %d: decoded .spb is not the variant matrix", i)
		}
		key := fmt.Sprint(want.Data)
		if digests[key] || reflect.DeepEqual(want.Data, in.x.Data) {
			t.Fatalf("op %d: matrix was seen before", i)
		}
		digests[key] = true
	}
}

func TestSeedsDriveInputs(t *testing.T) {
	w := catalogue(true)[0]
	a, _ := newInputs(w, 1)
	b, _ := newInputs(w, 1)
	c, _ := newInputs(w, 2)
	if !reflect.DeepEqual(a.x.Data, b.x.Data) || a.jobSeed(3) != b.jobSeed(3) {
		t.Error("same seed, different inputs")
	}
	if reflect.DeepEqual(a.x.Data, c.x.Data) || a.jobSeed(3) == c.jobSeed(3) {
		t.Error("different seeds, same inputs")
	}
	// cluster_exact must submit batch_exact's analyses exactly.
	var batch, clus *workload
	for _, w := range catalogue(false) {
		switch w.name {
		case "batch_exact":
			batch = w
		case "cluster_exact":
			clus = w
		}
	}
	if batch.rows != clus.rows || batch.cols != clus.cols || batch.opt != clus.opt || batch.warmups != clus.warmups {
		t.Error("cluster_exact no longer mirrors batch_exact")
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (pm axtd) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 25 0 0 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 1.75 {
		t.Errorf("cpu = %v, %v; want 1.75 s", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	ns, err := parseSchedstat("509576788 8692322 47\n")
	if err != nil || ns != 509576788 {
		t.Errorf("schedstat on-CPU time = %v, %v; want 509576788 ns", ns, err)
	}
	if _, err := parseSchedstat("\n"); err == nil {
		t.Error("empty schedstat line accepted")
	}
	mb, err := parseVmHWM("Name:\tpmaxtd\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n")
	if err != nil || mb != 200 {
		t.Errorf("VmHWM = %v, %v; want 200 MB", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

// TestQuietWindows pins what the timed phase reports on a shared host: a
// neighbour that slows 40 % of the ops, all in one stretch, moves neither
// the op time nor the throughput nor the CPU cost that is reported.
func TestQuietWindows(t *testing.T) {
	start := time.Unix(1000, 0)
	marks := []mark{{at: start}}
	at, cpu := start, 0.0
	for i := 0; i < 300; i++ {
		took, burnt := 10*time.Millisecond, 0.005
		if i >= 100 && i < 220 { // the neighbour's burst
			took, burnt = 20*time.Millisecond, 0.006
		}
		at, cpu = at.Add(took), cpu+burnt
		marks = append(marks, mark{at: at, cpu: cpu, ms: took.Seconds() * 1000})
	}
	ms, sPerOp, cpuPerOp := windows(marks)
	if len(ms) != maxWindows || len(sPerOp) != maxWindows || len(cpuPerOp) != maxWindows {
		t.Fatalf("%d, %d, %d windows; want %d", len(ms), len(sPerOp), len(cpuPerOp), maxWindows)
	}
	if got := sum(sPerOp) * 20; math.Abs(got-at.Sub(start).Seconds()) > 1e-9 {
		t.Errorf("windows of 20 ops cover %v s of a %v phase", got, at.Sub(start))
	}
	m := endToEnd([]float64{0.5, 0.3, 0.3, 0.9}, marks, 64)
	for name, want := range map[string]float64{
		"job_ms_p50": 10, "jobs_per_s": 100, "cpu_s_per_job": 0.005, "setup_s": 0.3, "peak_rss_mb": 64,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m["job_ms_p50"].N != 300 || m["setup_s"].N != 4 {
		t.Errorf("sample counts %d and %d, want 300 and 4", m["job_ms_p50"].N, m["setup_s"].N)
	}

	// Fewer ops than windows: one window per op.
	ms, sPerOp, _ = windows(marks[:4])
	if len(ms) != 3 || ms[0] != 10 || sPerOp[2] != 0.01 {
		t.Errorf("3 ops gave windows %v, %v", ms, sPerOp)
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP http_request_seconds latency
# TYPE http_request_seconds histogram
http_request_seconds_bucket{route="/v1/jobs",le="0.1"} 5
http_request_seconds_bucket{route="/v1/jobs",le="+Inf"} 7
http_request_seconds_sum{route="/v1/jobs"} 0.25
http_request_seconds_count{route="/v1/jobs"} 7
http_request_seconds_sum{route="/metrics"} 0.5
journal_records_total 13
cluster_shard_retries_total{reason="error"} 1
cluster_shard_retries_total{reason="partial"} 2
`
	got := parseExposition([]byte(text))
	want := map[string]float64{
		"http_request_seconds_sum": 0.75, "http_request_seconds_count": 7,
		"journal_records_total": 13, "cluster_shard_retries_total": 3,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
}

func TestCheckStructure(t *testing.T) {
	w := &workload{rows: 3, cols: 4, opt: httpapi.OptionsJSON{B: 100}}
	good := httpapi.ResultJSON{
		Stat: httpapi.Floats{3, 1, 2}, RawP: httpapi.Floats{0.01, 0.5, 0.2}, AdjP: httpapi.Floats{0.03, 0.5, 0.4},
		Order: []int{0, 2, 1}, B: 100,
	}
	if err := checkStructure(w, &good); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	mutate := func(f func(r *httpapi.ResultJSON)) httpapi.ResultJSON {
		r := good
		r.Stat = append(httpapi.Floats(nil), good.Stat...)
		r.RawP = append(httpapi.Floats(nil), good.RawP...)
		r.AdjP = append(httpapi.Floats(nil), good.AdjP...)
		r.Order = append([]int(nil), good.Order...)
		f(&r)
		return r
	}
	for name, bad := range map[string]httpapi.ResultJSON{
		"cache hit":       mutate(func(r *httpapi.ResultJSON) { r.CacheHit = true }),
		"wrong b":         mutate(func(r *httpapi.ResultJSON) { r.B = 99 }),
		"short vector":    mutate(func(r *httpapi.ResultJSON) { r.RawP = r.RawP[:2] }),
		"zero p":          mutate(func(r *httpapi.ResultJSON) { r.RawP[0] = 0 }),
		"p above one":     mutate(func(r *httpapi.ResultJSON) { r.AdjP[1] = 1.5 }),
		"adj below raw":   mutate(func(r *httpapi.ResultJSON) { r.AdjP[2] = 0.1 }),
		"not monotone":    mutate(func(r *httpapi.ResultJSON) { r.AdjP[0] = 0.45 }),
		"order not a set": mutate(func(r *httpapi.ResultJSON) { r.Order[1] = 0 }),
	} {
		if err := checkStructure(w, &bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := expectedB(&workload{cols: 16}); got != 12870 {
		t.Errorf("complete enumeration of 8/8 columns = %d, want C(16,8) = 12870", got)
	}
}

func TestCompare(t *testing.T) {
	mk := func(jobMS, perS float64, failed int) *document {
		return &document{Workloads: []*workloadResult{{
			Name: "serve_small", OpsAttempted: 100, OpsFailed: failed,
			EndToEnd: map[string]metricValue{
				"job_ms_p50": {Value: jobMS, Unit: "ms"},
				"jobs_per_s": {Value: perS, Unit: "1/s"},
			},
			PerLayer: map[string]metricValue{"jobs.run_ms_p50": {Value: 9, Unit: "ms"}},
		}}}
	}
	base := mk(20, 50, 0)
	for _, tc := range []struct {
		name      string
		b         *document
		regressed bool
	}{
		{"identical", mk(20, 50, 0), false},
		{"within bound", mk(23.9, 40.1, 0), false},
		{"faster", mk(10, 90, 0), false},
		{"latency beyond bound", mk(24.1, 50, 0), true},
		{"throughput beyond bound", mk(20, 39.9, 0), true},
		{"more failures", mk(20, 50, 1), true},
	} {
		var buf bytes.Buffer
		if got := compareDocuments(&buf, base, tc.b); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, buf.String())
		}
		if tc.regressed != strings.Contains(buf.String(), "REGRESSION") {
			t.Errorf("%s: table does not mark the regression:\n%s", tc.name, buf.String())
		}
	}
}

// benchmarkJSON is the driver's description of this benchmark.
type benchmarkJSON struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricSpec                 `json:"end_to_end"`
	PerLayer   []metricSpec                 `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps the driver's file and the code
// telling the same story: workloads, metric names, units, directions and
// bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range catalogue(false) {
		want = append(want, w.name)
		for _, bw := range b.Workloads {
			if bw.Name == w.name && bw.Why != w.why {
				t.Errorf("workload %s: why differs between BENCHMARK.json and the catalogue", w.name)
			}
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, catalogue %v", names, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs from the catalogue")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	for _, s := range endToEndSpecs {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}

// TestSmokeEveryWorkload boots real pmaxtd processes at -quick scale and
// runs every workload, untraced and traced, checking the result lines
// against the catalogue.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons")
	}
	for _, trace := range []int{0, 1} {
		dir := t.TempDir()
		fl := newFleet()
		var stdout, stderr bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := run(ctx, options{
			workload: "all", seed: 20100621, seconds: 0.2, trace: trace, quick: true,
			out: filepath.Join(dir, "bench.json"), tmp: filepath.Join(dir, "run"),
		}, fl, &stdout, &stderr)
		cancel()
		fl.killAll()
		if err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, stderr.String())
		}
		if n := len(fl.procs); n != 0 {
			t.Errorf("trace %d: %d daemons still tracked after the run", trace, n)
		}
		specs := endToEndSpecs
		if trace == 1 {
			specs = perLayerSpecs
		}
		var wantNames []string
		for _, s := range specs {
			wantNames = append(wantNames, s.Name)
		}
		sort.Strings(wantNames)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		workloads := catalogue(true)
		if len(lines) != len(workloads) {
			t.Fatalf("trace %d: %d result lines for %d workloads\n%s", trace, len(lines), len(workloads), stderr.String())
		}
		for i, line := range lines {
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &obj); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", workloads[i].name, err)
			}
			if len(obj) != 4 {
				t.Errorf("%s: result line has %d keys, want exactly correct, attempted, failed, metrics", workloads[i].name, len(obj))
			}
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", workloads[i].name, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			var names []string
			for name, m := range res.Metrics {
				names = append(names, name)
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", workloads[i].name, name, m.Value)
				}
			}
			sort.Strings(names)
			if !reflect.DeepEqual(names, wantNames) {
				t.Errorf("%s: metrics %v, want %v", workloads[i].name, names, wantNames)
			}
		}
		if trace == 1 {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(dir, "trace_"+w.name+".json")); err != nil {
					t.Errorf("no span file for %s: %v", w.name, err)
				}
			}
			checkLadder(t, filepath.Join(dir, "bench.json"))
		}
		if left, _ := os.ReadDir(filepath.Join(dir, "run")); len(left) != 0 {
			t.Errorf("trace %d: %d run trees left behind after a clean run", trace, len(left))
		}
	}
}

// checkLadder verifies on a traced document that each workload's layer
// self times sum to its outermost rung and that the counts that must be
// zero are zero.
func checkLadder(t *testing.T, path string) {
	doc, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	coldPrep := map[string]bool{}
	for _, w := range catalogue(true) {
		coldPrep[w.name] = w.coldPrep
	}
	for _, r := range doc.Workloads {
		v := func(name string) float64 { return r.PerLayer[name].Value }
		sum := v("perm.labels_s") + v("stat.kernel_s") + v("maxt.self_s") + v("core.self_s") + v("jobs.self_s") + v("httpapi.self_s") + v("cluster.self_s")
		if coldPrep[r.Name] {
			sum += v("core.prepare_s")
		}
		outer := v("httpapi.job_s")
		if r.Name == "cluster_exact" {
			outer = v("cluster.job_s")
		}
		if outer <= 0 || math.Abs(sum-outer) > 0.01*outer {
			t.Errorf("%s: layer self times sum to %v, outermost rung is %v", r.Name, sum, outer)
		}
		if v("jobs.cache_hits") != 0 || v("cluster.shard_retries") != 0 {
			t.Errorf("%s: cache hits %v, shard retries %v in the timed phase", r.Name, v("jobs.cache_hits"), v("cluster.shard_retries"))
		}
	}
}
