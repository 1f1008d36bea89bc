package main

// This file computes the layer metrics that can be read from outside the
// daemons on every run (source A in the README): each job's final status
// document and result, /metrics deltas across the timed phase, and file
// sizes.  The traced ladder (ladder.go) supplies the rest.

// harvest turns the timed phase's op records and before/after snapshots
// into per-layer metrics.  journalBytes is the growth of the entry
// daemon's journal file, treeBytes the size of every daemon's tree.
func harvest(records []opRecord, before, after *snapshot, journalBytes, treeBytes float64) map[string]metricValue {
	n := len(records)
	ops := float64(n)
	col := func(f func(*opRecord) float64) []float64 { return column(records, f) }
	p50 := func(unit string, f func(*opRecord) float64) metricValue {
		return metricValue{Value: median(col(f)), Unit: unit, N: n}
	}
	perJob := func(unit, series string) metricValue {
		return metricValue{Value: delta(before, after, series) / ops, Unit: unit}
	}
	total := func(series string) metricValue {
		return metricValue{Value: delta(before, after, series), Unit: "count"}
	}

	m := map[string]metricValue{
		// core: the paper's five-section profile, as each job's status
		// document reports it.
		"core.profile_pre_ms":     p50("ms", func(r *opRecord) float64 { return r.profile.PreProcessingS * 1000 }),
		"core.profile_create_ms":  p50("ms", func(r *opRecord) float64 { return r.profile.CreateDataS * 1000 }),
		"core.profile_kernel_ms":  p50("ms", func(r *opRecord) float64 { return r.profile.MainKernelS * 1000 }),
		"core.profile_pvalues_ms": p50("ms", func(r *opRecord) float64 { return r.profile.ComputePValuesS * 1000 }),
		"core.perm_rows_per_s": p50("1/s", func(r *opRecord) float64 {
			if r.profile.MainKernelS <= 0 {
				return 0 // distributed jobs: the kernel ran on the workers
			}
			return r.rowPerms / r.profile.MainKernelS
		}),

		// jobs: queueing from the status timestamps, stages from /metrics.
		"jobs.queue_wait_ms_p50": p50("ms", func(r *opRecord) float64 { return r.queueWaitMS }),
		"jobs.queue_wait_ms_p90": {Value: tail(col(func(r *opRecord) float64 { return r.queueWaitMS }), 0.90), Unit: "ms", N: n},
		"jobs.run_ms_p50":        p50("ms", func(r *opRecord) float64 { return r.runMS }),

		"jobs.stage_prep_s_per_job":       perJob("s", "stage_prep_seconds_sum"),
		"jobs.stage_ingest_s_per_job":     perJob("s", "stage_ingest_seconds_sum"),
		"jobs.kernel_window_s_per_job":    perJob("s", "kernel_window_seconds_sum"),
		"jobs.checkpoint_write_s_per_job": perJob("s", "checkpoint_write_seconds_sum"),
		"jobs.checkpoint_writes_per_job":  perJob("count", "checkpoint_write_seconds_count"),
		"jobs.prep_builds":                perJob("count", "prep_builds_total"),
		"jobs.prep_hits":                  perJob("count", "prep_hits_total"),
		"jobs.cache_hits":                 total("jobs_cache_hits_total"),

		"durable.journal_records_per_job":  perJob("count", "journal_records_total"),
		"durable.journal_append_s_per_job": perJob("s", "journal_append_seconds_sum"),
		"durable.journal_bytes_per_job":    {Value: journalBytes / ops, Unit: "B"},
		"durable.tree_bytes":               {Value: treeBytes, Unit: "B"},

		"httpapi.submit_ms_p50": p50("ms", func(r *opRecord) float64 { return r.submitMS }),
		"httpapi.result_ms_p50": p50("ms", func(r *opRecord) float64 { return r.resultMS }),
		"httpapi.polls_per_job": {Value: sum(col(func(r *opRecord) float64 { return float64(r.polls) })) / ops, Unit: "count"},
		"httpapi.tail_ms_p50":   p50("ms", func(r *opRecord) float64 { return r.tailMS }),
		// The entry daemon only: on the cluster the workers' request time is
		// shard compute, which belongs to the cluster layer.
		"httpapi.request_s_per_job": {Value: (after.metrics[0]["http_request_seconds_sum"] - before.metrics[0]["http_request_seconds_sum"]) / ops, Unit: "s"},
		"httpapi.job_ms_p90":        {Value: tail(col(func(r *opRecord) float64 { return r.ms }), 0.90), Unit: "ms", N: n},
		"httpapi.job_ms_p99":        {Value: tail(col(func(r *opRecord) float64 { return r.ms }), 0.99), Unit: "ms", N: n},

		"cluster.shards_per_job":         perJob("count", "cluster_shards_dispatched_total"),
		"cluster.shard_retries":          total("cluster_shard_retries_total"),
		"cluster.dataset_pushes":         total("cluster_dataset_pushes_total"),
		"cluster.local_shards":           total("cluster_local_shards_total"),
		"cluster.ledger_records_per_job": perJob("count", "cluster_ledger_records_total"),
		"cluster.lease_renewals":         total("cluster_lease_renewals_total"),
	}

	// The cluster plane's cost side: which share of the topology's CPU
	// time the workers (every daemon but the entry) spent.
	var all, workers float64
	for i := range after.cpu {
		d := after.cpu[i] - before.cpu[i]
		all += d
		if i > 0 {
			workers += d
		}
	}
	share := 0.0
	if all > 0 {
		share = workers / all
	}
	m["cluster.worker_cpu_share"] = metricValue{Value: 100 * share, Unit: "%"}

	// Sequential stopping: exact counts from the result documents of the
	// first exactOps timed jobs, which are the same jobs on every run of
	// a seed however many more the clock allowed.
	head := records[:min(exactOps, n)]
	m["seqstop.median_b_eff"] = metricValue{Value: median(column(head, func(r *opRecord) float64 { return r.medianBEff })), Unit: "count", N: len(head)}
	m["seqstop.rows_stopped"] = metricValue{Value: median(column(head, func(r *opRecord) float64 { return r.rowsStopped })), Unit: "count", N: len(head)}
	m["seqstop.perms_saved_share"] = metricValue{Value: 100 * median(column(head, func(r *opRecord) float64 { return r.savedShare })), Unit: "%", N: len(head)}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
