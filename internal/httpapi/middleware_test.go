package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sprint/internal/jobs"
	"sprint/internal/metrics"
)

func TestRequestIDMiddleware(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{})

	// A client-supplied id is propagated back verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/livez", nil)
	req.Header.Set("X-Request-Id", "cafebabe00000001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "cafebabe00000001" {
		t.Fatalf("echoed request id %q", got)
	}

	// Without one, the server mints a 16-hex-char id.
	resp, err = http.Get(ts.URL + "/v1/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if len(rid) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", rid)
	}
	if _, err := strconv.ParseUint(rid, 16, 64); err != nil {
		t.Fatalf("generated request id %q is not hex", rid)
	}
}

// TestStructuredRequestLog asserts the slog line carries the fields the
// operators grep by: request id, tenant, route, status, duration.
func TestStructuredRequestLog(t *testing.T) {
	var buf bytes.Buffer
	srv, err := New(Config{
		Jobs:   jobs.Config{Workers: 1},
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/livez", nil)
	req.Header.Set("X-Request-Id", "feedface00000002")
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var line map[string]any
	dec := json.NewDecoder(&buf)
	found := false
	for dec.More() {
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line["msg"] == "http_request" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no http_request log line")
	}
	if line["request_id"] != "feedface00000002" || line["tenant"] != "acme" ||
		line["route"] != "/v1/livez" || line["status"] != float64(200) {
		t.Fatalf("log line %v", line)
	}
	if _, ok := line["duration"]; !ok {
		t.Fatalf("log line misses duration: %v", line)
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and lints the
// exposition: the serving-plane families must be present and valid.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{})

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/livez")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One 404 feeds the 4xx counter of the jobs route.
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	if problems := metrics.Lint(strings.NewReader(text)); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	for _, want := range []string{
		`http_requests_total{code="2xx",route="/v1/livez"} 3`,
		`http_requests_total{code="4xx",route="/v1/jobs/{id}"} 1`,
		`# TYPE http_request_seconds histogram`,
		`# TYPE queue_depth gauge`,
		`# TYPE jobs_submitted_total counter`,
		`# TYPE jobs_shed_total counter`,
		`# TYPE kernel_window_seconds histogram`,
		`# TYPE dataset_hits_total counter`,
		`workers 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMiddlewareLatencyBuckets: every served request lands in the route's
// histogram, cumulative buckets terminating at +Inf == count.
func TestMiddlewareLatencyBuckets(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{})
	const hits = 5
	for i := 0; i < hits; i++ {
		resp, err := http.Get(ts.URL + "/v1/livez")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	h := srv.Metrics().Histogram("http_request_seconds", nil, "route", "/v1/livez")
	if got := h.Count(); got != hits {
		t.Fatalf("histogram count = %d, want %d", got, hits)
	}
	// A livez round-trip is far under the top finite bucket, so the
	// quantile estimate must stay inside the bucket range.
	if q := h.Quantile(0.99); q <= 0 || q > 60 {
		t.Fatalf("p99 = %v", q)
	}

	// Scrape view agrees: +Inf bucket == _count for the route.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	wantInf := fmt.Sprintf(`http_request_seconds_bucket{route="/v1/livez",le="+Inf"} %d`, hits)
	wantCount := fmt.Sprintf(`http_request_seconds_count{route="/v1/livez"} %d`, hits)
	for _, want := range []string{wantInf, wantCount} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRateLimitedSubmission: a throttled tenant gets 429 with a
// Retry-After header and the shed shows up in /v1/stats.
func TestRateLimitedSubmission(t *testing.T) {
	data := testDataset(t)
	_, ts := newTestServer(t, jobs.Config{
		TenantLimits: jobs.TenantLimits{Default: jobs.TenantLimit{Rate: 0.001, Burst: 1}},
	})

	submit := func(b int64) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			bytes.NewReader(submitBody(t, data, b, 1, 0)))
		req.Header.Set("X-Tenant", "hammer")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := submit(50)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission code %d", resp.StatusCode)
	}
	resp = submit(60)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission code %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q", ra)
	}
	var e map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e["reason"] != "rate_limited" {
		t.Fatalf("shed body %v", e)
	}

	var st jobs.Stats
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	if st.ShedRateLimited != 1 || st.TenantsActive != 1 {
		t.Fatalf("stats %+v", st)
	}
	found := false
	for _, ten := range st.Tenants {
		if ten.Tenant == "hammer" && ten.Admitted == 1 && ten.Throttled == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant stats %v", st.Tenants)
	}
}

// TestStatsSchemaStable: the pre-observability field names survive, the
// new plane appears, both through the public JSON surface.
func TestStatsSchemaStable(t *testing.T) {
	data := testDataset(t)
	_, ts := newTestServer(t, jobs.Config{})

	var st StatusJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, data, 200, 1, 0), &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var s StatusJSON
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &s)
		if s.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", s.State)
		}
		time.Sleep(time.Millisecond)
	}

	var raw map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &raw); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	// The original schema, by exact name.
	for _, key := range []string{
		"submitted", "completed", "failed", "cancelled", "cache_hits",
		"resumed", "queued", "running", "queue_cap", "workers", "jobs",
		"cached_results", "checkpoints", "datasets_added", "datasets",
		"dataset_bytes", "prep_builds", "prep_hits", "kernel", "perm_order",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats lost field %q", key)
		}
	}
	// The admission/observability plane.
	for _, key := range []string{
		"queue_policy", "queued_interactive", "queued_bulk",
		"shed_queue_full", "shed_queue_wait", "shed_rate_limited",
		"queue_wait_interactive", "queue_wait_bulk", "drain_rate_per_sec",
		"cache_hit_rate", "prep_hit_rate", "dataset_hits",
		"dataset_reloads", "dataset_evictions", "tenants_active",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats missing new field %q", key)
		}
	}
	if raw["queue_policy"] != "fair" {
		t.Errorf("queue_policy = %v", raw["queue_policy"])
	}
	if raw["submitted"] != float64(1) || raw["completed"] != float64(1) {
		t.Errorf("counters %v / %v", raw["submitted"], raw["completed"])
	}
	qw, ok := raw["queue_wait_interactive"].(map[string]any)
	if !ok || qw["count"] != float64(1) {
		t.Errorf("queue_wait_interactive = %v", raw["queue_wait_interactive"])
	}
}

// TestJobStatusCarriesTenantAndClass: the submit response reports the
// admission identity.
func TestJobStatusCarriesTenantAndClass(t *testing.T) {
	data := testDataset(t)
	_, ts := newTestServer(t, jobs.Config{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		bytes.NewReader(submitBody(t, data, 100, 1, 0)))
	req.Header.Set("X-Tenant", "team-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "team-a" || st.Class != "interactive" {
		t.Fatalf("status tenant/class = %q/%q", st.Tenant, st.Class)
	}
}
