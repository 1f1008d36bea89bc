package jobs

import (
	"sprint/internal/metrics"
)

// mgrMetrics holds the Manager's pre-registered metric handles: every
// hot-path update is an atomic on a handle resolved once at startup, so
// the steady-state job path adds zero allocations and zero map lookups.
// They are the manager's only counters: StatsSnapshot reads them back.
type mgrMetrics struct {
	submitted  [numClasses]*metrics.Counter
	completed  [numClasses]*metrics.Counter
	failed     *metrics.Counter
	cancelled  *metrics.Counter
	cacheHits  *metrics.Counter
	resumed    *metrics.Counter
	shed       map[string]*metrics.Counter // by reason
	prepBuilds *metrics.Counter
	prepHits   *metrics.Counter
	dsAdded    *metrics.Counter
	dsHits     *metrics.Counter
	dsReloads  *metrics.Counter
	dsEvicted  *metrics.Counter

	// Sequential-engine plane.
	seqRowsStopped  *metrics.Counter
	seqPermsSaved   *metrics.Counter
	seqJobEarlyStop *metrics.Counter

	// Durability / integrity plane.
	ckptCorrupt      *metrics.Counter
	dsCorrupt        *metrics.Counter
	journalCorrupt   *metrics.Counter
	journalRecords   *metrics.Counter
	journalReplayed  *metrics.Counter
	journalAppendErr *metrics.Counter

	queueWait      [numClasses]*metrics.Histogram
	jobDuration    [numClasses]*metrics.Histogram
	stageIngest    *metrics.Histogram
	stagePrep      *metrics.Histogram
	kernelWin      *metrics.Histogram
	ckptWrite      *metrics.Histogram
	journalAppendD *metrics.Histogram
}

// newMgrMetrics registers the jobs-layer families on reg and resolves
// every handle.
func newMgrMetrics(reg *metrics.Registry) *mgrMetrics {
	reg.Help("jobs_submitted_total", "Jobs admitted to the queue or answered from cache, by class.")
	reg.Help("jobs_completed_total", "Jobs finished successfully, by class.")
	reg.Help("jobs_failed_total", "Jobs finished with a non-cancellation error.")
	reg.Help("jobs_cancelled_total", "Jobs cancelled by request or shutdown.")
	reg.Help("jobs_cache_hits_total", "Submissions answered from the content-addressed result cache.")
	reg.Help("jobs_resumed_total", "Jobs resumed from a retained checkpoint.")
	reg.Help("jobs_shed_total", "Submissions refused by the admission plane, by reason.")
	reg.Help("prep_builds_total", "Full dataset preparations built (scrub + rank + moment precompute).")
	reg.Help("prep_hits_total", "Dataset jobs that reused a cached preparation.")
	reg.Help("datasets_added_total", "Datasets registered (deduplicated re-uploads excluded).")
	reg.Help("dataset_hits_total", "Dataset references answered from the in-memory registry.")
	reg.Help("dataset_reloads_total", "Dataset references reloaded from the disk mirror.")
	reg.Help("dataset_evictions_total", "Datasets evicted from the in-memory registry.")
	reg.Help("queue_wait_seconds", "Time jobs spent queued before a worker popped them, by class.")
	reg.Help("job_duration_seconds", "Worker wall time per job from pop to terminal state, by class.")
	reg.Help("stage_ingest_seconds", "Submission payload resolve time (matrix copy/transpose).")
	reg.Help("stage_prep_seconds", "Dataset preparation build time (cache misses only).")
	reg.Help("kernel_window_seconds", "Wall time of one kernel permutation window.")
	reg.Help("checkpoint_write_seconds", "Checkpoint store+mirror write latency.")
	reg.Help("integrity_checkpoint_corrupt_total", "Checkpoint files that failed their CRC frame and were quarantined.")
	reg.Help("integrity_dataset_corrupt_total", "Dataset mirrors that failed their content digest and were quarantined.")
	reg.Help("integrity_journal_corrupt_total", "Journal frames dropped for a bad length, CRC or payload.")
	reg.Help("journal_records_total", "Records durably appended to the job journal.")
	reg.Help("journal_replayed_jobs_total", "Jobs re-admitted from the journal after a restart.")
	reg.Help("journal_append_errors_total", "Journal appends or durability mirrors that failed (service continued).")
	reg.Help("journal_append_seconds", "Latency of one fsync'd journal append.")
	reg.Help("seq_rows_stopped_total", "Rows frozen before the planned permutation count by the sequential stopping rule.")
	reg.Help("seq_perms_saved_total", "Per-row permutation evaluations avoided by sequential early stopping.")
	reg.Help("seq_job_early_stop_total", "Sequential jobs whose whole run stopped before the planned permutation count.")

	m := &mgrMetrics{
		failed:           reg.Counter("jobs_failed_total"),
		cancelled:        reg.Counter("jobs_cancelled_total"),
		cacheHits:        reg.Counter("jobs_cache_hits_total"),
		resumed:          reg.Counter("jobs_resumed_total"),
		prepBuilds:       reg.Counter("prep_builds_total"),
		prepHits:         reg.Counter("prep_hits_total"),
		dsAdded:          reg.Counter("datasets_added_total"),
		dsHits:           reg.Counter("dataset_hits_total"),
		dsReloads:        reg.Counter("dataset_reloads_total"),
		dsEvicted:        reg.Counter("dataset_evictions_total"),
		seqRowsStopped:   reg.Counter("seq_rows_stopped_total"),
		seqPermsSaved:    reg.Counter("seq_perms_saved_total"),
		seqJobEarlyStop:  reg.Counter("seq_job_early_stop_total"),
		ckptCorrupt:      reg.Counter("integrity_checkpoint_corrupt_total"),
		dsCorrupt:        reg.Counter("integrity_dataset_corrupt_total"),
		journalCorrupt:   reg.Counter("integrity_journal_corrupt_total"),
		journalRecords:   reg.Counter("journal_records_total"),
		journalReplayed:  reg.Counter("journal_replayed_jobs_total"),
		journalAppendErr: reg.Counter("journal_append_errors_total"),
		shed: map[string]*metrics.Counter{
			"queue_full":   reg.Counter("jobs_shed_total", "reason", "queue_full"),
			"queue_wait":   reg.Counter("jobs_shed_total", "reason", "queue_wait"),
			"rate_limited": reg.Counter("jobs_shed_total", "reason", "rate_limited"),
		},
		stageIngest:    reg.Histogram("stage_ingest_seconds", nil),
		stagePrep:      reg.Histogram("stage_prep_seconds", nil),
		kernelWin:      reg.Histogram("kernel_window_seconds", nil),
		ckptWrite:      reg.Histogram("checkpoint_write_seconds", nil),
		journalAppendD: reg.Histogram("journal_append_seconds", nil),
	}
	for c := JobClass(0); c < numClasses; c++ {
		m.submitted[c] = reg.Counter("jobs_submitted_total", "class", c.String())
		m.completed[c] = reg.Counter("jobs_completed_total", "class", c.String())
		m.queueWait[c] = reg.Histogram("queue_wait_seconds", nil, "class", c.String())
		m.jobDuration[c] = reg.Histogram("job_duration_seconds", nil, "class", c.String())
	}
	return m
}

// registerGauges exposes the manager's live state as callback gauges.
// They run at scrape/snapshot time and take the manager (or queue)
// locks briefly; the registry never holds its own lock across the
// callback, so there is no lock-order hazard.  A quantity StatsSnapshot
// also reports comes from the accessor both call, so the two surfaces
// cannot disagree on what it means.
func (m *Manager) registerGauges(reg *metrics.Registry) {
	reg.Help("queue_depth", "Jobs waiting for a worker, by class.")
	reg.GaugeFunc("queue_depth", func() float64 {
		i, _ := m.queue.lens()
		return float64(i)
	}, "class", "interactive")
	reg.GaugeFunc("queue_depth", func() float64 {
		_, b := m.queue.lens()
		return float64(b)
	}, "class", "bulk")
	reg.Help("workers", "Configured worker-pool size.")
	reg.GaugeFunc("workers", func() float64 { return float64(m.cfg.Workers) })
	reg.Help("workers_busy", "Workers currently running a job.")
	reg.GaugeFunc("workers_busy", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		_, running := m.liveJobsLocked()
		return float64(running)
	})
	reg.Help("datasets_resident", "Datasets in the in-memory registry.")
	reg.GaugeFunc("datasets_resident", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		n, _, _ := m.datasets.resident()
		return float64(n)
	})
	reg.Help("dataset_resident_bytes", "Payload bytes of in-memory registered datasets.")
	reg.GaugeFunc("dataset_resident_bytes", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		_, b, _ := m.datasets.resident()
		return float64(b)
	})
	reg.Help("dataset_pins", "Dataset references currently held by queued or running jobs.")
	reg.GaugeFunc("dataset_pins", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		_, _, pins := m.datasets.resident()
		return float64(pins)
	})
	reg.Help("tenants_active", "Tenants with admission state resident.")
	reg.GaugeFunc("tenants_active", func() float64 { return float64(m.tenants.active()) })
	reg.Help("queue_drain_rate_per_sec", "Observed job completion rate over the last 30s.")
	reg.GaugeFunc("queue_drain_rate_per_sec", func() float64 {
		return m.drain.ratePerSec(m.cfg.Clock())
	})
}

// liveJobsLocked counts the job table's queued and running jobs.
// Callers hold m.mu.
func (m *Manager) liveJobsLocked() (queued, running int) {
	for _, j := range m.jobs {
		switch j.state {
		case Queued:
			queued++
		case Running:
			running++
		}
	}
	return queued, running
}

// sumClasses totals a per-class counter family.
func sumClasses(cs *[numClasses]*metrics.Counter) int64 {
	var n int64
	for _, c := range cs {
		n += c.Value()
	}
	return n
}
