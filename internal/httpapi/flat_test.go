package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"sprint/internal/jobs"
	"sprint/internal/microarray"
)

// flatSubmitBody encodes the dataset as the x_flat column-major payload
// (R's native layout), with NaN cells as JSON null.
func flatSubmitBody(t *testing.T, data *microarray.Dataset, b int64, nprocs int) []byte {
	t.Helper()
	genes, samples := len(data.X), len(data.X[0])
	flat := make([]*float64, genes*samples)
	for j := 0; j < samples; j++ {
		for i := 0; i < genes; i++ {
			if v := data.X[i][j]; !math.IsNaN(v) {
				vv := v
				flat[j*genes+i] = &vv
			}
		}
	}
	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{
			"x_flat": flat, "genes": genes, "samples": samples,
			"labels": data.Labels,
		},
		"options": map[string]any{"b": b, "seed": 13},
		"nprocs":  nprocs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFlatSubmissionOverHTTP: an x_flat submission must compute the same
// result as the row-form submission of the same data, share its content
// key, and be answered from the cache when the row form ran first.
func TestFlatSubmissionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1, DefaultNProcs: 1})
	data := testDataset(t)
	const B = 300

	var rowSt StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, B, 1, 100), &rowSt); code != http.StatusAccepted {
		t.Fatalf("row submit code %d", code)
	}
	pollTerminal(t, ts.URL, rowSt.ID)
	var rowRes ResultJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+rowSt.ID+"/result", nil, &rowRes); code != http.StatusOK {
		t.Fatalf("row result code %d", code)
	}

	var flatSt StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", flatSubmitBody(t, data, B, 1), &flatSt); code != http.StatusAccepted {
		t.Fatalf("flat submit code %d", code)
	}
	if flatSt.Key != rowSt.Key {
		t.Fatalf("flat key %s != row key %s", flatSt.Key, rowSt.Key)
	}
	if flatSt.State != "done" || !flatSt.CacheHit {
		t.Fatalf("flat submission not a cache hit: %+v", flatSt)
	}
	var flatRes ResultJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+flatSt.ID+"/result", nil, &flatRes); code != http.StatusOK {
		t.Fatalf("flat result code %d", code)
	}
	for i := range rowRes.AdjP {
		if math.Float64bits(flatRes.AdjP[i]) != math.Float64bits(rowRes.AdjP[i]) {
			t.Fatalf("AdjP[%d]: flat %v != rows %v", i, flatRes.AdjP[i], rowRes.AdjP[i])
		}
	}
}

// TestExplicitNullXFlat: serializers that emit every field send
// "x_flat": null alongside a row-form matrix; null must mean absent.
func TestExplicitNullXFlat(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1, DefaultNProcs: 1})
	data := testDataset(t)
	var body map[string]any
	if err := json.Unmarshal(submitBody(t, data, 200, 1, 100), &body); err != nil {
		t.Fatal(err)
	}
	body["dataset"].(map[string]any)["x_flat"] = nil
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var st StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", b, &st); code != http.StatusAccepted {
		t.Fatalf("submission with explicit null x_flat rejected with %d", code)
	}
	if fin := pollTerminal(t, ts.URL, st.ID); fin.State != "done" {
		t.Fatalf("job finished %+v", fin)
	}
}

// TestEvictedResultIsGone: the result cache is the one owner of finished
// results, so once more than CacheSize jobs finish, the oldest job's
// result answers 410 with a resubmit hint while the newest still answers
// 200.
func TestEvictedResultIsGone(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1, DefaultNProcs: 1, CacheSize: 2})
	data := testDataset(t)
	var ids []string
	for b := int64(100); b < 103; b++ { // three distinct content keys
		var st StatusJSON
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, b, 1, 100), &st); code != http.StatusAccepted {
			t.Fatalf("submit code %d", code)
		}
		if fin := pollTerminal(t, ts.URL, st.ID); fin.State != "done" {
			t.Fatalf("job %s finished %+v", st.ID, fin)
		}
		ids = append(ids, st.ID)
	}
	var e map[string]string
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[0]+"/result", nil, &e); code != http.StatusGone || !strings.Contains(e["error"], "resubmit") {
		t.Fatalf("evicted result: code %d %v, want 410 with a resubmit hint", code, e)
	}
	var res ResultJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[2]+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("newest result code %d, want 200", code)
	}
}

// TestFlatSubmissionBadShape: malformed flat payloads are client errors.
func TestFlatSubmissionBadShape(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{
			"x_flat": []float64{1, 2, 3}, "genes": 2, "samples": 2,
			"labels": []int{0, 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &e); code != http.StatusBadRequest {
		t.Fatalf("bad flat shape code %d, want 400 (%v)", code, e)
	}
}
