package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"sprint/internal/core"
	"sprint/internal/jobs"
	"sprint/internal/microarray"
)

func seqDataset(t *testing.T) *microarray.Dataset {
	t.Helper()
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 120, Samples: 24, Classes: 2,
		DiffFraction: 0.05, EffectSize: 2.5, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSequentialOverHTTP drives the mode end to end through the API:
// submit with mode/target_alpha/p_tolerance, watch the status expose the
// mode and savings, and read back a result whose metadata and p-values
// match a direct engine run bit for bit.
func TestSequentialOverHTTP(t *testing.T) {
	data := seqDataset(t)
	_, ts := newTestServer(t, jobs.Config{})
	const (
		b     = int64(40000)
		every = int64(2048)
		alpha = 0.05
		tol   = 0.02
	)

	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"x": data.X, "labels": data.Labels},
		"options": map[string]any{
			"b": b, "seed": 13,
			"mode":         "sequential",
			"target_alpha": alpha,
			"p_tolerance":  tol,
		},
		"nprocs":           2,
		"checkpoint_every": every,
	})
	if err != nil {
		t.Fatal(err)
	}
	var st StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d (%+v)", code, st)
	}
	if st.Mode != core.ModeSequential {
		t.Fatalf("submit status mode %q, want sequential", st.Mode)
	}
	fin := pollTerminal(t, ts.URL, st.ID)
	if fin.State != "done" {
		t.Fatalf("final status %+v", fin)
	}
	if fin.Mode != core.ModeSequential || fin.SeqPermsSaved <= 0 || fin.SeqActiveRows != 0 {
		t.Fatalf("final sequential status: mode=%q saved=%d active=%d",
			fin.Mode, fin.SeqPermsSaved, fin.SeqActiveRows)
	}
	// An early-stopped job deliberately reads as done < total — the
	// savings are visible, not silently renormalised away.
	if fin.Total != b || fin.Done <= 0 || fin.Done > b {
		t.Fatalf("finished sequential job reports done=%d total=%d, want done in (0,%d] of total %d",
			fin.Done, fin.Total, b, b)
	}

	var res struct {
		RawP       []*float64 `json:"raw_p"`
		AdjP       []*float64 `json:"adj_p"`
		B          int64      `json:"b"`
		Mode       string     `json:"mode"`
		PlannedB   int64      `json:"planned_b"`
		BEffective []int64    `json:"b_effective"`
		PermsSaved int64      `json:"perms_saved"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}

	opt := core.DefaultOptions()
	opt.B = b
	opt.Seed = 13
	opt.Mode = core.ModeSequential
	opt.SeqAlpha = alpha
	opt.SeqTolerance = tol
	x, err := data.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunMatrix(x, data.Labels, opt, core.RunControl{NProcs: 2, Every: every})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeSequential || res.PlannedB != b || res.B != want.B {
		t.Fatalf("result metadata: mode=%q plannedB=%d B=%d, want sequential %d %d",
			res.Mode, res.PlannedB, res.B, b, want.B)
	}
	if res.PermsSaved != want.SeqPermsSaved() {
		t.Fatalf("perms_saved = %d, want %d", res.PermsSaved, want.SeqPermsSaved())
	}
	if len(res.BEffective) != len(want.BEff) {
		t.Fatalf("b_effective has %d rows, want %d", len(res.BEffective), len(want.BEff))
	}
	for i, be := range want.BEff {
		if res.BEffective[i] != be {
			t.Fatalf("b_effective[%d] = %d, want %d", i, res.BEffective[i], be)
		}
	}
	for i := range want.RawP {
		if math.IsNaN(want.RawP[i]) {
			continue
		}
		if res.RawP[i] == nil || math.Float64bits(*res.RawP[i]) != math.Float64bits(want.RawP[i]) {
			t.Fatalf("raw_p[%d] not bit-identical to the engine run", i)
		}
		if res.AdjP[i] == nil || math.Float64bits(*res.AdjP[i]) != math.Float64bits(want.AdjP[i]) {
			t.Fatalf("adj_p[%d] not bit-identical to the engine run", i)
		}
	}
}

// TestExactStatusOmitsSequentialFields: exact jobs must not grow new JSON
// fields — the wire format stays byte-compatible with pre-mode clients.
func TestExactStatusOmitsSequentialFields(t *testing.T) {
	data := testDataset(t)
	_, ts := newTestServer(t, jobs.Config{})
	var st StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, 400, 1, 100), &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	pollTerminal(t, ts.URL, st.ID)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"mode", "seq_active_rows", "seq_perms_saved"} {
		if _, ok := raw[field]; ok {
			t.Fatalf("exact job status leaks %q", field)
		}
	}

	resp2, err := http.DefaultClient.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rawRes map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&rawRes); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"mode", "planned_b", "b_effective", "perms_saved"} {
		if _, ok := rawRes[field]; ok {
			t.Fatalf("exact job result leaks %q", field)
		}
	}
}

// TestSequentialSubmitValidation: broken stopping knobs are a 400 at
// submission, not a failed job later.
func TestSequentialSubmitValidation(t *testing.T) {
	data := seqDataset(t)
	_, ts := newTestServer(t, jobs.Config{})
	for _, opts := range []map[string]any{
		{"b": 1000, "mode": "adaptive"},
		{"b": 1000, "mode": "sequential", "target_alpha": 1.5},
		{"b": 1000, "mode": "sequential", "p_tolerance": 0.9},
		{"b": 0, "mode": "sequential"}, // complete enumeration
	} {
		body, err := json.Marshal(map[string]any{
			"dataset": map[string]any{"x": data.X, "labels": data.Labels},
			"options": opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &e); code != http.StatusBadRequest {
			t.Fatalf("options %v: code %d (%+v), want 400", opts, code, e)
		}
	}
}
