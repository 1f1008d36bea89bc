package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// scrapeMetric sums every sample of a Prometheus series on a live
// daemon's /metrics endpoint.  name may include a label selector prefix
// (`foo_total{kind="shard"}`) or be bare (`foo_total`, summing all label
// combinations).
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, "}") {
			continue // longer metric name sharing this prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		sum += v
	}
	return sum
}

// TestCoordinatorSIGKILLRestartBitwiseIdentity is the cluster
// crash-safety acceptance test at the process level: a real coordinator
// daemon is killed with SIGKILL mid-distributed-job, restarted over the
// same -journal-dir, and must finish the SAME job id bitwise identical
// to an uninterrupted run — with every delivery journaled before the
// kill replayed from the merge ledger (never re-dispatched: zero shard
// retries) and the window in flight at the kill re-delivered from the
// worker's retention instead of recomputed from scratch.
func TestCoordinatorSIGKILLRestartBitwiseIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 150, Samples: 20, Classes: 2,
		DiffFraction: 0.2, EffectSize: 2.0, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	const permB, seed = 150000, 7

	// Uninterrupted reference, computed in-process.
	ref := func() *core.Result {
		m, err := jobs.NewManager(jobs.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		x, err := matrix.FromRows(data.X)
		if err != nil {
			t.Fatal(err)
		}
		info, _, err := m.PutDataset(x)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.B = permB
		opt.Seed = seed
		st, err := m.Submit(jobs.Spec{DatasetID: info.ID, Labels: data.Labels, Opt: opt, NProcs: 1, Every: 1000})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(120 * time.Second)
		for time.Now().Before(deadline) {
			got, err := m.Get(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.State.Terminal() {
				if got.State != jobs.Done {
					t.Fatalf("reference job: %s: %s", got.State, got.Error)
				}
				res, _, err := m.Result(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("reference job did not finish")
		return nil
	}()

	// The worker outlives the coordinator crash; a compute orphaned by it
	// parks its prefix, and the worker's journal tree holds the retained
	// results the restart re-probes.
	wJournal := t.TempDir()
	wArgs := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-role", "worker",
		"-journal-dir", wJournal, "-metrics-interval", "0"}
	_, wBase := startDaemon(t, wArgs)

	journalDir := t.TempDir()
	cArgs := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-role", "coordinator",
		"-cluster-workers", wBase, "-journal-dir", journalDir,
		"-shards-per-worker", "8", "-shard-nprocs", "1", "-dist-min-b", "1",
		"-metrics-interval", "0"}
	cmd1, cBase1 := startDaemon(t, cArgs)

	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"x": data.X, "labels": data.Labels},
		"options": map[string]any{"b": permB, "seed": seed},
		"nprocs":  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cBase1+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK || sub.ID == "" {
		t.Fatalf("submit: code %d id %q", resp.StatusCode, sub.ID)
	}

	// Kill only when the crash exercises both recovery paths at once: at
	// least one delivery journaled in the merge ledger (replayed, never
	// recomputed) AND a shard mid-compute on the worker (whose parked
	// prefix the restarted coordinator resumes from retention).
	type status struct {
		State string `json:"state"`
		Done  int64  `json:"done"`
		Error string `json:"error"`
	}
	type workerStats struct {
		Cluster struct {
			Worker struct {
				ShardsActive int `json:"shards_active"`
			} `json:"worker"`
		} `json:"cluster"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st status
		getJSON(t, cBase1+"/v1/jobs/"+sub.ID, &st)
		if st.State == "done" || st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job finished (%s) before the crash; bump B", st.State)
		}
		var ws workerStats
		getJSON(t, wBase+"/v1/stats", &ws)
		journaled := scrapeMetric(t, cBase1, `cluster_ledger_records_total{kind="shard"}`)
		if st.Done > 0 && journaled >= 1 && ws.Cluster.Worker.ShardsActive > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw a journaled delivery with a shard in flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	cmd1.Wait()

	// Restart over the same journal tree; readyz gates on ledger replay.
	_, cBase2 := startDaemon(t, cArgs)
	deadline = time.Now().Add(120 * time.Second)
	for getJSON(t, cBase2+"/v1/readyz", nil) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never became ready after restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st status
	for {
		getJSON(t, cBase2+"/v1/jobs/"+sub.ID, &st)
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("replayed job %s: %s: %s", sub.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job %s did not finish (state %s)", sub.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	var res struct {
		Stat []float64 `json:"stat"`
		RawP []float64 `json:"raw_p"`
		AdjP []float64 `json:"adj_p"`
	}
	if code := getJSON(t, cBase2+"/v1/jobs/"+sub.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}
	for name, pair := range map[string][2][]float64{
		"Stat": {res.Stat, ref.Stat}, "RawP": {res.RawP, ref.RawP}, "AdjP": {res.AdjP, ref.AdjP},
	} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d]: %v != %v (bitwise) after coordinator SIGKILL", name, i, got[i], want[i])
			}
		}
	}

	// Zero recomputation of delivered shards: the journaled windows were
	// merged straight from the ledger (replay counters), nothing was
	// re-dispatched twice (no retries), and the worker re-delivered at
	// least one result from retention or resumed a parked prefix.
	if n := scrapeMetric(t, cBase2, "cluster_ledger_jobs_replayed_total"); n != 1 {
		t.Errorf("cluster_ledger_jobs_replayed_total = %v, want 1", n)
	}
	if n := scrapeMetric(t, cBase2, "cluster_ledger_windows_replayed_total"); n < 1 {
		t.Errorf("cluster_ledger_windows_replayed_total = %v, want >= 1", n)
	}
	if n := scrapeMetric(t, cBase2, "cluster_ledger_invalid_total"); n != 0 {
		t.Errorf("cluster_ledger_invalid_total = %v, want 0", n)
	}
	if n := scrapeMetric(t, cBase2, "cluster_shard_retries_total"); n != 0 {
		t.Errorf("cluster_shard_retries_total = %v after restart, want 0 (no window recomputed)", n)
	}
	reDelivered := scrapeMetric(t, wBase, "cluster_worker_retained_hits_total") +
		scrapeMetric(t, wBase, "cluster_worker_retained_resumes_total") +
		scrapeMetric(t, wBase, "cluster_worker_inflight_joins_total")
	if reDelivered < 1 {
		t.Errorf("worker re-delivered nothing from retention/in-flight after the restart")
	}
	if parked, _ := filepath.Glob(filepath.Join(wJournal, "retained", "*.shard")); len(parked) == 0 {
		t.Errorf("worker retained no shard results under %s/retained", wJournal)
	}
}
