package httpapi

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/metrics"
	"sprint/internal/microarray"
)

// statsFamilies is the one name mapping between /v1/stats and /metrics:
// each /v1/stats field (a dotted path into the document) and the series
// it is a view of.  A bare family name sums every label set of the
// family; a name with labels selects one series.
var statsFamilies = []struct{ field, family string }{
	{"submitted", "jobs_submitted_total"},
	{"completed", "jobs_completed_total"},
	{"failed", "jobs_failed_total"},
	{"cancelled", "jobs_cancelled_total"},
	{"cache_hits", "jobs_cache_hits_total"},
	{"resumed", "jobs_resumed_total"},
	{"workers", "workers"},
	{"running", "workers_busy"},
	{"datasets_added", "datasets_added_total"},
	{"datasets", "datasets_resident"},
	{"dataset_bytes", "dataset_resident_bytes"},
	{"prep_builds", "prep_builds_total"},
	{"prep_hits", "prep_hits_total"},
	{"queued_interactive", `queue_depth{class="interactive"}`},
	{"queued_bulk", `queue_depth{class="bulk"}`},
	{"shed_queue_full", `jobs_shed_total{reason="queue_full"}`},
	{"shed_queue_wait", `jobs_shed_total{reason="queue_wait"}`},
	{"shed_rate_limited", `jobs_shed_total{reason="rate_limited"}`},
	{"dataset_hits", "dataset_hits_total"},
	{"dataset_reloads", "dataset_reloads_total"},
	{"dataset_evictions", "dataset_evictions_total"},
	{"tenants_active", "tenants_active"},
	{"journal_replayed", "journal_replayed_jobs_total"},
	{"journal_corrupt_frames", "integrity_journal_corrupt_total"},
	{"journal_append_errors", "journal_append_errors_total"},
	{"corrupt_checkpoints", "integrity_checkpoint_corrupt_total"},
	{"corrupt_datasets", "integrity_dataset_corrupt_total"},
	{"seq_rows_stopped", "seq_rows_stopped_total"},
	{"seq_perms_saved", "seq_perms_saved_total"},
	{"seq_jobs_early_stopped", "seq_job_early_stop_total"},

	{"cluster.coordinator.workers_live", "cluster_workers_live"},
	{"cluster.coordinator.shards_in_flight", "cluster_shards_in_flight"},
	{"cluster.coordinator.shards_dispatched", "cluster_shards_dispatched_total"},
	{"cluster.coordinator.shard_retries", "cluster_shard_retries_total"},
	{"cluster.coordinator.dataset_pushes", "cluster_dataset_pushes_total"},
	{"cluster.coordinator.jobs_distributed", "cluster_jobs_distributed_total"},
	{"cluster.coordinator.jobs_declined", "cluster_jobs_declined_total"},
	{"cluster.coordinator.local_shards", "cluster_local_shards_total"},
	{"cluster.coordinator.seq_early_stops", "cluster_seq_early_stops_total"},
	{"cluster.coordinator.ledger_records", "cluster_ledger_records_total"},
	{"cluster.coordinator.ledger_jobs_replayed", "cluster_ledger_jobs_replayed_total"},
	{"cluster.coordinator.ledger_windows_replayed", "cluster_ledger_windows_replayed_total"},
	{"cluster.coordinator.ledger_invalid", "cluster_ledger_invalid_total"},

	{"cluster.worker.shards_served", "cluster_worker_shards_served_total"},
	{"cluster.worker.shards_partial", "cluster_worker_shards_partial_total"},
	{"cluster.worker.shards_refused", "cluster_worker_shards_refused_total"},
	{"cluster.worker.shards_retained", "cluster_worker_retained_results"},
	{"cluster.worker.retained_hits", "cluster_worker_retained_hits_total"},
	{"cluster.worker.retained_resumes", "cluster_worker_retained_resumes_total"},
	{"cluster.worker.inflight_joins", "cluster_worker_inflight_joins_total"},
}

// statsOutsideRegistry lists the numeric /v1/stats fields with no series
// of their own: configuration, table sizes, derived rates and digests.
var statsOutsideRegistry = map[string]bool{
	"queue_cap": true, "jobs": true, "cached_results": true, "checkpoints": true,
	// Queued counts the job table; queue_depth counts the queue, which
	// still holds cancelled jobs until a worker pops them.
	"queued":             true,
	"journal_pending":    true,
	"drain_rate_per_sec": true, "cache_hit_rate": true, "prep_hit_rate": true,
	"cluster.worker.shards_active": true,
}

// scrape reads a /metrics exposition into sample values keyed both by
// the full series ("name{labels}") and, summed, by the family name.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		series := line[:sp]
		out[series] += v
		if br := strings.IndexByte(series, '{'); br >= 0 {
			out[series[:br]] += v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// numericFields collects the document's numeric leaves as dotted paths,
// descending into the cluster node objects.
func numericFields(doc map[string]any, prefix string, out map[string]float64) {
	for k, v := range doc {
		switch v := v.(type) {
		case float64:
			out[prefix+k] = v
		case map[string]any:
			if prefix+k == "cluster" || strings.HasPrefix(prefix, "cluster.") {
				numericFields(v, prefix+k+".", out)
			}
		}
	}
}

// TestStatsEqualsMetrics pins /v1/stats as a view of the metrics
// registry: on a standalone server, a coordinator and a worker, after the
// same mix of events, every /v1/stats counter equals its family in the
// same server's /metrics scrape.
func TestStatsEqualsMetrics(t *testing.T) {
	for _, role := range []string{"standalone", "coordinator", "worker"} {
		t.Run(role, func(t *testing.T) {
			reg := metrics.New()
			jcfg := jobs.Config{
				Workers:       1,
				DefaultNProcs: 1,
				Metrics:       reg,
				TenantLimits: jobs.TenantLimits{Overrides: map[string]jobs.TenantLimit{
					"hammer": {Rate: 0.001, Burst: 1},
				}},
			}
			if role == "coordinator" {
				// A static worker that refuses connections: the first job
				// is distributed, its dispatch fails and retries, and the
				// coordinator computes the shards itself.  The worker then
				// stays down (later jobs are declined), so workers_live
				// cannot flip between the two reads.
				jcfg.Distributor = cluster.NewCoordinator(cluster.CoordinatorConfig{
					Workers: []string{"http://127.0.0.1:1"},
					DownFor: time.Hour,
					Metrics: reg,
				})
			}
			srv, ts := newTestServer(t, jcfg)
			switch role {
			case "coordinator":
				srv.AttachCluster(jcfg.Distributor.(*cluster.Coordinator))
			case "worker":
				srv.AttachCluster(cluster.NewWorker(cluster.WorkerConfig{Source: srv.Manager(), Metrics: reg}))
			}

			id := driveEvents(t, ts.URL)
			if role == "worker" {
				driveShards(t, srv, ts.URL, id)
			}
			doc := quiescentStats(t, ts.URL)
			series := scrape(t, ts.URL+"/metrics")

			fields := make(map[string]float64)
			numericFields(doc, "", fields)
			mapped := make(map[string]bool)
			for _, m := range statsFamilies {
				mapped[m.field] = true
				if got, want := fields[m.field], series[m.family]; got != want {
					t.Errorf("/v1/stats %s = %v, /metrics %s = %v", m.field, got, m.family, want)
				}
			}
			for f := range fields {
				if !mapped[f] && !statsOutsideRegistry[f] {
					t.Errorf("/v1/stats field %s has no /metrics family in statsFamilies", f)
				}
			}

			// The events really happened, so the equalities above are not
			// all 0 = 0.
			nonzero := []string{"submitted", "completed", "failed", "cancelled", "cache_hits",
				"shed_rate_limited", "datasets_added", "dataset_hits", "prep_builds"}
			switch role {
			case "coordinator":
				nonzero = append(nonzero, "cluster.coordinator.shards_dispatched",
					"cluster.coordinator.shard_retries", "cluster.coordinator.local_shards",
					"cluster.coordinator.jobs_distributed", "cluster.coordinator.jobs_declined")
			case "worker":
				nonzero = append(nonzero, "cluster.worker.shards_served", "cluster.worker.shards_refused",
					"cluster.worker.shards_retained", "cluster.worker.retained_hits")
			}
			for _, f := range nonzero {
				if fields[f] == 0 {
					t.Errorf("/v1/stats %s = 0 after the event mix", f)
				}
			}
		})
	}
}

// driveEvents runs the shared event mix against a server: a completed
// job and its cache hit, a user cancel of a running and of a queued job,
// a failed job, a rate-limited submission, and a dataset upload used by
// a job.  It returns the uploaded dataset's id.
func driveEvents(t *testing.T, base string) string {
	t.Helper()
	data := testDataset(t)
	body := submitBody(t, data, 200, 1, 0)
	var st StatusJSON
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	if fin := pollTerminal(t, base, st.ID); fin.State != "done" {
		t.Fatalf("job finished %+v", fin)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", body, &st); code != http.StatusAccepted || !st.CacheHit {
		t.Fatalf("resubmission code %d, %+v: want a cache hit", code, st)
	}

	// The first hammer submission spends the tenant's one token; the
	// second is refused.
	for i, want := range []int{http.StatusAccepted, http.StatusTooManyRequests} {
		code := doRaw(t, http.MethodPost, base+"/v1/jobs", submitBody(t, data, int64(50+i), 1, 0),
			map[string]string{"X-Tenant": "hammer"}, &st)
		if code != want {
			t.Fatalf("hammer submission %d: code %d, want %d", i, code, want)
		}
	}

	enc, err := matrix.EncodeBytes(datasetMatrixOf(t, data), nil, nil, matrix.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	var info jobs.DatasetInfo
	if code := doRaw(t, http.MethodPut, base+"/v1/datasets", enc,
		map[string]string{"Content-Type": SPBContentType}, &info); code != http.StatusCreated {
		t.Fatalf("dataset upload code %d", code)
	}
	dsJob := func(labels []int) StatusJSON {
		b, err := json.Marshal(map[string]any{
			"dataset": map[string]any{"dataset_id": info.ID, "labels": labels},
			"options": map[string]any{"b": 100, "seed": 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		var st StatusJSON
		if code := doJSON(t, http.MethodPost, base+"/v1/jobs", b, &st); code != http.StatusAccepted {
			t.Fatalf("dataset submit code %d", code)
		}
		return pollTerminal(t, base, st.ID)
	}
	if fin := dsJob(data.Labels); fin.State != "done" {
		t.Fatalf("dataset job finished %+v", fin)
	}
	// Labels one short of the dataset's columns pass admission and fail
	// when the job prepares.
	if fin := dsJob(data.Labels[1:]); fin.State != "failed" {
		t.Fatalf("mislabelled dataset job finished %+v, want failed", fin)
	}

	// A long job holds the one worker; a second job queues behind it.
	// Both are cancelled by the user.
	long, err := microarray.Generate(microarray.GenOptions{Genes: 20, Samples: 30, Classes: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var running, queued StatusJSON
	doJSON(t, http.MethodPost, base+"/v1/jobs", submitBody(t, long, 50_000_000, 1, 100), &running)
	deadline := time.Now().Add(30 * time.Second)
	for running.State != "running" {
		if time.Now().After(deadline) {
			t.Fatalf("long job never ran: %+v", running)
		}
		time.Sleep(time.Millisecond)
		doJSON(t, http.MethodGet, base+"/v1/jobs/"+running.ID, nil, &running)
	}
	doJSON(t, http.MethodPost, base+"/v1/jobs", submitBody(t, long, 40_000_000, 1, 100), &queued)
	for _, id := range []string{queued.ID, running.ID} {
		if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+id, nil, nil); code != http.StatusOK {
			t.Fatalf("cancel %s: code %d", id, code)
		}
		if fin := pollTerminal(t, base, id); fin.State != "cancelled" {
			t.Fatalf("job %s finished %+v, want cancelled", id, fin)
		}
	}
	return info.ID
}

// driveShards sends a worker shard traffic over HTTP: a refusal for an
// unknown dataset, a served window and a retained re-probe of it.
func driveShards(t *testing.T, srv *Server, base, id string) {
	t.Helper()
	data := testDataset(t)
	opt, err := core.CanonicalOptions(core.Options{B: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	prep, release, err := srv.Manager().PreparedDataset(id, data.Labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.PlanRun(prep, opt)
	release()
	if err != nil {
		t.Fatal(err)
	}
	req := cluster.ShardRequest{DatasetID: strings.Repeat("0", 64), Labels: data.Labels, Options: opt,
		Lo: 0, Hi: plan.TotalB, TotalB: plan.TotalB, Fingerprint: plan.Fingerprint, NProcs: 1}
	for i, want := range []int{http.StatusNotFound, http.StatusOK, http.StatusOK} {
		if i > 0 {
			req.DatasetID = id
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if code := doRaw(t, http.MethodPost, base+cluster.ShardPath, b, nil, nil); code != want {
			t.Fatalf("shard request %d: code %d, want %d", i, code, want)
		}
	}
}

// quiescentStats waits for the server to drain (no job queued or
// running) and returns its /v1/stats document.
func quiescentStats(t *testing.T, base string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := getDoc(t, base+"/v1/stats")
		if doc["queued_interactive"] == float64(0) && doc["queued_bulk"] == float64(0) && doc["running"] == float64(0) {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never drained: %v", doc)
		}
		time.Sleep(time.Millisecond)
	}
}
