package main

// This file is the metric catalogue: every name the benchmark prints,
// with its unit, its direction and — for end-to-end metrics — the bound
// by which it may worsen before a change counts as a regression.
// BENCHMARK.json repeats it for the driver; a test keeps the two equal.

// metricSpec describes one metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndSpecs are the metrics a user of the service sees, measured
// with tracing off on every workload.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_s_per_job", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayerSpecs are the single-layer metrics; the layer is the module
// name before the dot.  Source A metrics come from outside the daemons
// (harvest.go), source B from the traced ladder (ladder.go).  A metric
// whose layer a workload does not enter reads 0 there.
var perLayerSpecs = []metricSpec{
	// stat, perm, maxt, core — source B.
	{Name: "stat.kernel_s", Unit: "s", Better: "lower"},
	{Name: "stat.cell_perms_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stat.bytes_per_perm", Unit: "B", Better: "lower"},
	{Name: "perm.labels_s", Unit: "s", Better: "lower"},
	{Name: "perm.labels_per_s", Unit: "1/s", Better: "higher"},
	{Name: "maxt.process_s", Unit: "s", Better: "lower"},
	{Name: "maxt.self_s", Unit: "s", Better: "lower"},
	{Name: "maxt.finalize_s", Unit: "s", Better: "lower"},
	{Name: "core.prepare_s", Unit: "s", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	// core — source A.
	{Name: "core.profile_pre_ms", Unit: "ms", Better: "lower"},
	{Name: "core.profile_create_ms", Unit: "ms", Better: "lower"},
	{Name: "core.profile_kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "core.profile_pvalues_ms", Unit: "ms", Better: "lower"},
	{Name: "core.perm_rows_per_s", Unit: "1/s", Better: "higher"},
	// seqstop — source A, exact counts.
	{Name: "seqstop.median_b_eff", Unit: "count", Better: "lower"},
	{Name: "seqstop.rows_stopped", Unit: "count", Better: "higher"},
	{Name: "seqstop.perms_saved_share", Unit: "%", Better: "higher"},
	// jobs — source A.
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.queue_wait_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "jobs.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.stage_prep_s_per_job", Unit: "s", Better: "lower"},
	{Name: "jobs.stage_ingest_s_per_job", Unit: "s", Better: "lower"},
	{Name: "jobs.kernel_window_s_per_job", Unit: "s", Better: "lower"},
	{Name: "jobs.checkpoint_write_s_per_job", Unit: "s", Better: "lower"},
	{Name: "jobs.checkpoint_writes_per_job", Unit: "count", Better: "lower"},
	{Name: "jobs.prep_builds", Unit: "count", Better: "lower"},
	{Name: "jobs.prep_hits", Unit: "count", Better: "higher"},
	{Name: "jobs.cache_hits", Unit: "count", Better: "lower"},
	// jobs — source B.
	{Name: "jobs.job_s", Unit: "s", Better: "lower"},
	{Name: "jobs.self_s", Unit: "s", Better: "lower"},
	{Name: "jobs.dataset_digest_s", Unit: "s", Better: "lower"},
	{Name: "jobs.put_dataset_s", Unit: "s", Better: "lower"},
	// durable — source A.
	{Name: "durable.journal_records_per_job", Unit: "count", Better: "lower"},
	{Name: "durable.journal_append_s_per_job", Unit: "s", Better: "lower"},
	{Name: "durable.journal_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "durable.tree_bytes", Unit: "B", Better: "lower"},
	// httpapi — source A.
	{Name: "httpapi.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "httpapi.tail_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.request_s_per_job", Unit: "s", Better: "lower"},
	{Name: "httpapi.job_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "httpapi.job_ms_p99", Unit: "ms", Better: "lower"},
	// httpapi, matrix — source B.
	{Name: "httpapi.job_s", Unit: "s", Better: "lower"},
	{Name: "httpapi.self_s", Unit: "s", Better: "lower"},
	{Name: "httpapi.decode_submit_s", Unit: "s", Better: "lower"},
	{Name: "matrix.decode_spb_s", Unit: "s", Better: "lower"},
	{Name: "matrix.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	// cluster — source A.
	{Name: "cluster.shards_per_job", Unit: "count", Better: "lower"},
	{Name: "cluster.shard_retries", Unit: "count", Better: "lower"},
	{Name: "cluster.dataset_pushes", Unit: "count", Better: "lower"},
	{Name: "cluster.local_shards", Unit: "count", Better: "lower"},
	{Name: "cluster.ledger_records_per_job", Unit: "count", Better: "lower"},
	{Name: "cluster.lease_renewals", Unit: "count", Better: "lower"},
	{Name: "cluster.worker_cpu_share", Unit: "%", Better: "higher"},
	// cluster — source B.
	{Name: "cluster.job_s", Unit: "s", Better: "lower"},
	{Name: "cluster.self_s", Unit: "s", Better: "lower"},
}

// completeLayers fills in a 0 for every catalogued per-layer metric the
// run did not produce, so each workload reports every name.
func completeLayers(got map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		if v, ok := got[s.Name]; ok {
			out[s.Name] = v
		} else {
			out[s.Name] = metricValue{Unit: s.Unit}
		}
	}
	return out
}
