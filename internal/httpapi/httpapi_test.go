package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/jobs"
	"sprint/internal/microarray"
)

// newTestServer builds a server + httptest listener over one worker.
func newTestServer(t *testing.T, jcfg jobs.Config) (*Server, *httptest.Server) {
	t.Helper()
	if jcfg.Workers == 0 {
		jcfg.Workers = 1
	}
	srv, err := New(Config{Jobs: jcfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func testDataset(t *testing.T) *microarray.Dataset {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 40, Samples: 12, Classes: 2,
		DiffFraction: 0.1, EffectSize: 2.5, MissingRate: 0.05, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func submitBody(t *testing.T, data *microarray.Dataset, b int64, nprocs int, every int64) []byte {
	t.Helper()
	// Marshal the matrix by hand so NaN cells become JSON null, as a real
	// client would send missing values.
	rows := make([][]*float64, len(data.X))
	for i, row := range data.X {
		rows[i] = make([]*float64, len(row))
		for j := range row {
			if !math.IsNaN(row[j]) {
				v := row[j]
				rows[i][j] = &v
			}
		}
	}
	body, err := json.Marshal(map[string]any{
		"dataset":          map[string]any{"x": rows, "labels": data.Labels},
		"options":          map[string]any{"b": b, "seed": 13},
		"nprocs":           nprocs,
		"checkpoint_every": every,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// pollTerminal polls the status endpoint until the job finishes.
func pollTerminal(t *testing.T, base, id string) StatusJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st StatusJSON
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return StatusJSON{}
}

func TestEndToEndBitIdentity(t *testing.T) {
	data := testDataset(t)
	_, ts := newTestServer(t, jobs.Config{})
	const B = 500

	var st StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, B, 2, 100), &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d (%+v)", code, st)
	}
	if st.ID == "" || st.State != "queued" {
		t.Fatalf("submit status %+v", st)
	}

	fin := pollTerminal(t, ts.URL, st.ID)
	if fin.State != "done" || fin.Done != B || fin.Progress != 1 {
		t.Fatalf("final status %+v", fin)
	}
	if fin.Profile == nil || fin.Profile.TotalS <= 0 {
		t.Fatalf("missing profile in %+v", fin)
	}

	var res struct {
		Stat  []*float64 `json:"stat"`
		RawP  []*float64 `json:"raw_p"`
		AdjP  []*float64 `json:"adj_p"`
		Order []int      `json:"order"`
		B     int64      `json:"b"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}

	opt := core.DefaultOptions()
	opt.B = B
	opt.Seed = 13
	x, err := data.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.PMaxTMatrix(x, data.Labels, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.B != want.B || len(res.AdjP) != len(want.AdjP) {
		t.Fatalf("result shape B=%d len=%d, want B=%d len=%d", res.B, len(res.AdjP), want.B, len(want.AdjP))
	}
	check := func(name string, got []*float64, want []float64) {
		for i := range want {
			switch {
			case math.IsNaN(want[i]):
				if got[i] != nil {
					t.Fatalf("%s[%d] = %v, want null (NaN)", name, i, *got[i])
				}
			case got[i] == nil:
				t.Fatalf("%s[%d] = null, want %v", name, i, want[i])
			case math.Float64bits(*got[i]) != math.Float64bits(want[i]):
				t.Fatalf("%s[%d] = %v, want %v bit-identically", name, i, *got[i], want[i])
			}
		}
	}
	check("adj_p", res.AdjP, want.AdjP)
	check("raw_p", res.RawP, want.RawP)
	check("stat", res.Stat, want.Stat)
	for i := range want.Order {
		if res.Order[i] != want.Order[i] {
			t.Fatalf("order[%d] = %d, want %d", i, res.Order[i], want.Order[i])
		}
	}
}

func TestCachedResubmission(t *testing.T) {
	data := testDataset(t)
	_, ts := newTestServer(t, jobs.Config{})
	body := submitBody(t, data, 300, 1, 100)

	var st1 StatusJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st1)
	pollTerminal(t, ts.URL, st1.ID)

	var st2 StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st2); code != http.StatusAccepted {
		t.Fatalf("resubmit code %d", code)
	}
	if st2.State != "done" || !st2.CacheHit || st2.Key != st1.Key {
		t.Fatalf("resubmission %+v, want cached done with key %s", st2, st1.Key)
	}
	var stats jobs.Stats
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
	if stats.CacheHits != 1 || stats.Completed != 1 {
		t.Fatalf("stats %+v, want one completion and one cache hit", stats)
	}
}

func TestCancelOverHTTPThenResume(t *testing.T) {
	data := testDataset(t)
	var url atomic.Value // string; the hook fires only after submission
	var once atomic.Bool
	jcfg := jobs.Config{
		Workers: 1,
		OnCheckpoint: func(id string, done, total int64) {
			if done >= 200 && once.CompareAndSwap(false, true) {
				req, _ := http.NewRequest(http.MethodDelete, url.Load().(string)+"/v1/jobs/"+id, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("cancel: %v", err)
					return
				}
				resp.Body.Close()
			}
		},
	}
	_, ts := newTestServer(t, jcfg)
	url.Store(ts.URL)
	body := submitBody(t, data, 600, 1, 100)

	var st1 StatusJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st1)
	fin1 := pollTerminal(t, ts.URL, st1.ID)
	if fin1.State != "cancelled" {
		t.Fatalf("first job %+v, want cancelled", fin1)
	}
	var notDone StatusJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st1.ID+"/result", nil, &notDone); code != http.StatusConflict {
		t.Fatalf("result of cancelled job: code %d", code)
	}

	var st2 StatusJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st2)
	fin2 := pollTerminal(t, ts.URL, st2.ID)
	if fin2.State != "done" || fin2.ResumedFrom < 200 {
		t.Fatalf("resubmission %+v, want done with resumed_from >= 200", fin2)
	}
}

// TestFoldedJobReportsLabellings: a complete balanced Wilcoxon job runs
// folded — one labelling per complement pair — yet its status counts
// labellings: done, total, progress and resumed_from across a cancel and
// a resume, and the result's b, which carries the paper path's bits.
func TestFoldedJobReportsLabellings(t *testing.T) {
	data := testDataset(t) // 6 + 6 columns: C(12, 6) = 924 labellings
	rows := make([][]*float64, len(data.X))
	for i, row := range data.X {
		rows[i] = make([]*float64, len(row))
		for j := range row {
			if !math.IsNaN(row[j]) {
				v := row[j]
				rows[i][j] = &v
			}
		}
	}
	body, err := json.Marshal(map[string]any{
		"dataset":          map[string]any{"x": rows, "labels": data.Labels},
		"options":          map[string]any{"test": "wilcoxon", "b": 0},
		"nprocs":           1,
		"checkpoint_every": 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var url atomic.Value // string; the hook fires only after submission
	var mid StatusJSON
	var once atomic.Bool
	var saves []int64
	var mu sync.Mutex
	jcfg := jobs.Config{
		Workers: 1,
		OnCheckpoint: func(id string, done, total int64) {
			mu.Lock()
			saves = append(saves, done)
			mu.Unlock()
			if total != 924 {
				t.Errorf("checkpoint at %d of %d, want a total of 924 labellings", done, total)
			}
			// The second checkpoint: the status shows the first window's
			// progress; then cancel.
			if done >= 512 && once.CompareAndSwap(false, true) {
				base := url.Load().(string)
				resp, err := http.Get(base + "/v1/jobs/" + id)
				if err != nil {
					t.Errorf("status: %v", err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&mid)
				resp.Body.Close()
				if err != nil {
					t.Errorf("status: %v", err)
				}
				req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
				if resp, err = http.DefaultClient.Do(req); err != nil {
					t.Errorf("cancel: %v", err)
					return
				}
				resp.Body.Close()
			}
		},
	}
	_, ts := newTestServer(t, jcfg)
	url.Store(ts.URL)

	var st1 StatusJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st1)
	fin1 := pollTerminal(t, ts.URL, st1.ID)
	mu.Lock()
	first := append([]int64(nil), saves...)
	mu.Unlock()
	// checkpoint_every 100 aligns to one kernel batch of 64 complement
	// pairs: 128 pairs, 256 labellings a window.
	if len(first) != 2 || first[0] != 256 || first[1] != 512 {
		t.Fatalf("checkpoints at %v labellings, want [256 512]", first)
	}
	if mid.State != "running" || mid.Done != 256 || mid.Total != 924 || mid.Progress != 256.0/924 {
		t.Fatalf("mid-run status %+v, want running at 256 of 924 labellings", mid)
	}
	if fin1.State != "cancelled" || fin1.Done != 512 || fin1.Total != 924 {
		t.Fatalf("cancelled status %+v, want 512 of 924 labellings", fin1)
	}

	var st2 StatusJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st2)
	fin2 := pollTerminal(t, ts.URL, st2.ID)
	if fin2.State != "done" || fin2.ResumedFrom != 512 || fin2.Done != 924 || fin2.Total != 924 || fin2.Progress != 1 {
		t.Fatalf("resumed status %+v, want done, resumed from 512, 924 of 924 labellings", fin2)
	}
	var res struct {
		Stat     []*float64 `json:"stat"`
		RawP     []*float64 `json:"raw_p"`
		AdjP     []*float64 `json:"adj_p"`
		B        int64      `json:"b"`
		Complete bool       `json:"complete"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st2.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}
	x, err := data.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.PMaxTMatrix(x, data.Labels, 1, core.Options{Test: "wilcoxon", B: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.B != 924 || want.B != 924 || !res.Complete {
		t.Fatalf("result b %d complete %v (reference b %d), want 924 complete", res.B, res.Complete, want.B)
	}
	for name, pair := range map[string]struct {
		got  []*float64
		want []float64
	}{"stat": {res.Stat, want.Stat}, "raw_p": {res.RawP, want.RawP}, "adj_p": {res.AdjP, want.AdjP}} {
		for i, w := range pair.want {
			g := pair.got[i]
			if (g == nil) != math.IsNaN(w) || (g != nil && math.Float64bits(*g) != math.Float64bits(w)) {
				t.Fatalf("%s[%d] = %v, want %v bit for bit", name, i, g, w)
			}
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{})
	var e map[string]string

	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope", nil, &e); code != http.StatusNotFound {
		t.Fatalf("unknown job code %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(`{"bogus": 1}`), &e); code != http.StatusBadRequest {
		t.Fatalf("unknown field code %d", code)
	}
	bad, _ := json.Marshal(map[string]any{
		"dataset": map[string]any{"x": [][]float64{{1, 2}}, "labels": []int{0, 1}},
		"options": map[string]any{"test": "bogus", "b": 10},
	})
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bad, &e); code != http.StatusBadRequest {
		t.Fatalf("bad options code %d (%v)", code, e)
	}

	var live map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/livez", nil, &live); code != http.StatusOK || live["status"] != "ok" {
		t.Fatalf("livez code %d body %v", code, live)
	}
}

// TestSubmitRejectsExecutionKnobs: how the engine cuts the work is not a
// parameter of the analysis, so a body naming the batch, the enumeration
// order or the collective's wire protocol is refused, naming the field,
// rather than accepted under a content key that ignores it.
func TestSubmitRejectsExecutionKnobs(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{})
	for _, field := range []string{"batch_size", "perm_order", "scalar_params"} {
		value := map[string]any{"batch_size": 7, "perm_order": "lex", "scalar_params": true}[field]
		body, _ := json.Marshal(map[string]any{
			"dataset": map[string]any{"x": [][]float64{{1, 2, 3, 4}}, "labels": []int{0, 0, 1, 1}},
			"options": map[string]any{"b": 10, field: value},
		})
		var e map[string]string
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &e); code != http.StatusBadRequest || !strings.Contains(e["error"], field) {
			t.Errorf("%s: code %d, error %q; want 400 naming the field", field, code, e["error"])
		}
	}
}

// FuzzDecodeSubmit holds the streaming submit decoder to its claim: it
// accepts exactly what encoding/json with DisallowUnknownFields accepts,
// and on accept returns the same request, NaN equal to NaN.
func FuzzDecodeSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":{"x":[[1,2.5,null],[4,-0,6e-3]],"labels":[0,0,1]},"options":{"b":100,"seed":3},"nprocs":2,"checkpoint_every":64,"class":"bulk"}`,
		`{"options":{"test":"wilcoxon","b":0},"dataset":{"genes":2,"samples":3,"x_flat":[1,null,3,4,5,6],"labels":[0,1,1]}}`,
		`{"dataset":{"x_flat":[1,2],"labels":[0,1],"samples":2,"genes":1},"nprocs":1}`,
		`{"dataset":{"dataset_id":"sha256:abc","labels":[0,1]},"options":{"mode":"sequential","target_alpha":0.01,"p_tolerance":0.05}}`,
		`{"dataset":{"x":[[1,2]],"labels":[0,1]},"options":{"batch_size":7}}`,
		`{"dataset":{"x":[[1,2]],"labels":[0,1]},"options":{"perm_order":"lex"}}`,
		`{"dataset":{"x":[[1,2]],"labels":[0,1]},"options":{"scalar_params":true}}`,
		`{"dataset":{"x":[[1,2]],"x":[[3,4]],"labels":[0,1]},"nprocs":1,"nprocs":2,"options":{"b":5},"options":{"seed":9}}`,
		`{"dataset":{"x":[[1,2]],"x":null,"x_flat":null,"labels":null},"options":null,"class":null}`,
		`{"dataset":null,"dataset":{"labels":[1]}}`,
		`null`,
		`{"Dataset":{"X":[[1]],"Labels":[0]},"NProcs":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := DecodeSubmit(bytes.NewReader(body))
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		want := &SubmitRequest{}
		wantErr := dec.Decode(want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeSubmit err %v, encoding/json err %v on %q", gotErr, wantErr, body)
		}
		// %#v spells floats exactly (and every NaN alike) and tells a nil
		// slice from an empty one.
		if gotErr == nil && fmt.Sprintf("%#v", *got) != fmt.Sprintf("%#v", *want) {
			t.Fatalf("on %q:\nDecodeSubmit  %#v\nencoding/json %#v", body, *got, *want)
		}
	})
}

func TestQueueFullOverHTTP(t *testing.T) {
	data := testDataset(t)
	// Park the single worker inside the first job's first checkpoint, so
	// the depth-1 queue fills deterministically.
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	var first atomic.Bool
	_, ts := newTestServer(t, jobs.Config{
		Workers: 1, QueueDepth: 1,
		OnCheckpoint: func(id string, done, total int64) {
			if first.CompareAndSwap(false, true) {
				<-block
			}
		},
	})
	t.Cleanup(release) // unblock before the server cleanup drains workers

	var running StatusJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, 500, 1, 50), &running)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st StatusJSON
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+running.ID, nil, &st)
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var st StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, 400, 1, 100), &st); code != http.StatusAccepted {
		t.Fatalf("fill code %d", code)
	}
	var e map[string]any
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, 401, 1, 100), &e); code != http.StatusTooManyRequests {
		t.Fatalf("overflow code %d (%v)", code, e)
	}
	if e["reason"] != "queue_full" {
		t.Fatalf("shed reason %v, want queue_full", e["reason"])
	}
	release()
	if fin := pollTerminal(t, ts.URL, running.ID); fin.State != "done" {
		t.Fatalf("first job %+v after release", fin)
	}
}

// TestLivenessReadinessSplit pins the health split: /v1/livez is a bare
// process check that never 503s for operational states, /v1/readyz
// reports traffic-worthiness (draining and journal recovery are
// not-ready).  The pair is the whole health surface: role and membership
// live in /v1/stats.
func TestLivenessReadinessSplit(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{})

	var live map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/livez", nil, &live); code != http.StatusOK || live["status"] != "ok" {
		t.Fatalf("livez code %d body %v", code, live)
	}
	var ready map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/readyz", nil, &ready); code != http.StatusOK || ready["ready"] != true {
		t.Fatalf("readyz code %d body %v", code, ready)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, nil); code != http.StatusNotFound {
		t.Fatalf("retired /v1/healthz answered %d, want 404", code)
	}

	// A draining worker is alive but must stop receiving traffic.
	w := cluster.NewWorker(cluster.WorkerConfig{Source: srv.Manager()})
	srv.AttachCluster(w)
	w.Drain()
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/livez", nil, &live); code != http.StatusOK {
		t.Fatalf("livez during drain: code %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready["status"] != "draining" || ready["ready"] != false {
		t.Fatalf("readyz during drain: code %d body %v", code, ready)
	}
}
