package httpapi

import (
	"encoding/json"
	"net/http"
	"testing"

	"sprint/internal/cluster"
	"sprint/internal/jobs"
)

// statsPinnedFields is every /v1/stats field name shipped before the
// cluster extension.  Renaming or dropping any of these breaks
// dashboards; this test pins them.
var statsPinnedFields = []string{
	"submitted", "completed", "failed", "cancelled", "cache_hits",
	"resumed", "queued", "running", "queue_cap", "workers", "jobs",
	"cached_results", "checkpoints", "datasets_added", "datasets",
	"dataset_bytes", "prep_builds", "prep_hits", "kernel", "perm_order",
	"queue_policy", "queued_interactive", "queued_bulk",
	"shed_queue_full", "shed_queue_wait", "shed_rate_limited",
	"queue_wait_interactive", "queue_wait_bulk", "drain_rate_per_sec",
	"cache_hit_rate", "prep_hit_rate", "dataset_hits", "dataset_reloads",
	"dataset_evictions", "tenants_active",
}

func getDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestStatsFieldNamesPinned: the cluster extension of /v1/stats is
// strictly additive — every pre-cluster field name survives, and a
// standalone daemon reports role "standalone" with no cluster object.
func TestStatsFieldNamesPinned(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{})
	doc := getDoc(t, ts.URL+"/v1/stats")
	for _, f := range statsPinnedFields {
		if _, ok := doc[f]; !ok {
			t.Errorf("/v1/stats lost pinned field %q", f)
		}
	}
	if doc["role"] != "standalone" {
		t.Errorf("standalone role = %v", doc["role"])
	}
	if _, ok := doc["cluster"]; ok {
		t.Error("standalone /v1/stats carries a cluster object")
	}
}

// TestStatsClusterFields: a daemon with a mounted worker node reports
// its role, shard counters and membership through /v1/stats, serves its
// shard route through the same mux, and goes not-ready on
// /v1/readyz while it drains.
func TestStatsClusterFields(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{})
	w := cluster.NewWorker(cluster.WorkerConfig{Source: srv.Manager()})
	srv.AttachCluster(w)

	doc := getDoc(t, ts.URL+"/v1/stats")
	if doc["role"] != "worker" {
		t.Fatalf("role = %v, want worker", doc["role"])
	}
	cl, ok := doc["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("no cluster object in /v1/stats: %v", doc["cluster"])
	}
	wk, ok := cl["worker"].(map[string]any)
	if !ok {
		t.Fatalf("no worker object in cluster stats: %v", cl)
	}
	for _, f := range []string{"draining", "shards_active", "shards_served", "shards_partial", "shards_refused"} {
		if _, ok := wk[f]; !ok {
			t.Errorf("cluster.worker missing %q", f)
		}
	}
	if wk["draining"] != false {
		t.Errorf("idle worker draining = %v", wk["draining"])
	}
	for _, f := range statsPinnedFields {
		if _, ok := doc[f]; !ok {
			t.Errorf("worker /v1/stats lost pinned field %q", f)
		}
	}

	// The node's internal routes ride the instrumented mux.
	var eb map[string]any
	if code := doJSON(t, http.MethodPost, ts.URL+cluster.ShardPath, []byte(`{"fingerprints":`), &eb); code != http.StatusBadRequest || eb["error"] == nil {
		t.Errorf("undecodable shard request: code %d body %v", code, eb)
	}

	// A draining worker reports through /v1/stats and /v1/readyz.
	w.Drain()
	doc = getDoc(t, ts.URL+"/v1/stats")
	if wk := doc["cluster"].(map[string]any)["worker"].(map[string]any); wk["draining"] != true {
		t.Errorf("draining worker stats draining = %v", wk["draining"])
	}
	var ready map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready["status"] != "draining" {
		t.Errorf("draining readyz: code %d body %v", code, ready)
	}
}

// TestStatsCoordinatorFields: same for a coordinator node.
func TestStatsCoordinatorFields(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{})
	c := cluster.NewCoordinator(cluster.CoordinatorConfig{Workers: []string{"http://w1:1"}})
	srv.AttachCluster(c)

	doc := getDoc(t, ts.URL+"/v1/stats")
	if doc["role"] != "coordinator" {
		t.Fatalf("role = %v, want coordinator", doc["role"])
	}
	cl := doc["cluster"].(map[string]any)
	co, ok := cl["coordinator"].(map[string]any)
	if !ok {
		t.Fatalf("no coordinator object in cluster stats: %v", cl)
	}
	for _, f := range []string{"workers", "workers_live", "shards_in_flight", "shards_dispatched",
		"shard_retries", "dataset_pushes", "jobs_distributed", "jobs_declined", "local_shards"} {
		if _, ok := co[f]; !ok {
			t.Errorf("cluster.coordinator missing %q", f)
		}
	}
	if co["workers_live"] != float64(1) {
		t.Errorf("cluster.coordinator.workers_live = %v, want 1", co["workers_live"])
	}
	workers, ok := co["workers"].([]any)
	if !ok || len(workers) != 1 {
		t.Fatalf("cluster.coordinator.workers = %v, want one member", co["workers"])
	}
	if m := workers[0].(map[string]any); m["addr"] != "http://w1:1" || m["static"] != true {
		t.Errorf("static member = %v", m)
	}
}
