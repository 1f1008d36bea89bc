package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sprint/internal/core"
	"sprint/internal/metrics"
)

// Config sizes a Manager.  Zero values select the documented defaults.
type Config struct {
	// Workers is the worker-pool size: how many jobs run concurrently.
	// Defaults to half the CPUs (each job parallelises internally over
	// its own NProcs ranks), minimum 1.
	Workers int
	// QueueDepth bounds the queue of jobs waiting for a worker, both
	// classes together; a full queue sheds submissions with ErrQueueFull
	// (wrapped in an OverloadError carrying Retry-After).  Defaults to 64.
	QueueDepth int
	// DefaultNProcs is the rank count for jobs that do not choose one.
	// Defaults to runtime.GOMAXPROCS(0): every available CPU.
	DefaultNProcs int
	// DefaultEvery is the checkpoint/progress window for jobs that do not
	// choose one, in permutations.  Defaults to 1000.
	DefaultEvery int64
	// CacheSize bounds the result cache (entries), the one owner of
	// finished results: Manager.Result answers from it, and a done job whose
	// result has aged out reports ErrResultEvicted.  Defaults to 128.
	CacheSize int
	// CheckpointDir, when non-empty, mirrors checkpoints to disk so
	// resume survives a daemon restart.  Empty keeps them in memory only.
	CheckpointDir string
	// DatasetCacheSize bounds the in-memory dataset registry (entries).
	// Defaults to 32.  Entries referenced by queued or running jobs are
	// never evicted, so the bound can be transiently exceeded while every
	// entry is in use.
	DatasetCacheSize int
	// DatasetDir, when non-empty, mirrors registered datasets to disk as
	// "<digest>.spb" files (typically alongside CheckpointDir), so they
	// survive LRU eviction and daemon restarts.  Empty keeps the registry
	// memory-only.
	DatasetDir string
	// JournalDir, when non-empty, enables the write-ahead job journal:
	// every admitted job is durably recorded before Submit returns, and
	// a restarted manager replays the journal, re-admits every
	// non-terminal job under its original id, and resumes running jobs
	// from their newest valid checkpoint — results bitwise identical to
	// an uninterrupted run.  Matrix submissions are mirrored into
	// DatasetDir by content address so their cells survive too (without
	// a DatasetDir they are replayed as failed: unrecoverable).  Empty
	// disables journaling.
	JournalDir string

	// Metrics is the registry the manager instruments (queue depth and
	// wait, per-stage timings, shed decisions, dataset-plane counters)
	// and the only store of its counters: StatsSnapshot reads them back.
	// Nil gets a private registry, so instrumentation is always on;
	// callers that serve /metrics pass their own, shared with no other
	// Manager (two would count into, and report, the same series).
	Metrics *metrics.Registry
	// InteractiveMaxB classifies submissions: sampled jobs with B at or
	// under this bound count as interactive, everything else (including
	// complete enumerations) as bulk.  An explicit Spec.Class overrides.
	// Defaults to 10000.
	InteractiveMaxB int64
	// TenantLimits configures per-tenant token buckets.  The zero value
	// admits everything (no rate limiting).
	TenantLimits TenantLimits
	// MaxQueueWait, when positive, sheds submissions whose predicted
	// queue wait (backlog over observed drain rate) exceeds it — the
	// proactive half of load shedding.  0 sheds only on a full queue.
	MaxQueueWait time.Duration

	// Distributor, when non-nil, makes this manager a cluster
	// coordinator: popped jobs are handed to it (with the shared
	// preparation and the dataset's content address) instead of the
	// local kernel.  A distributor that declines a job with
	// ErrNotDistributed — no live workers, B under its threshold —
	// falls the job back to the bit-identical local path.
	Distributor Distributor

	// Clock overrides time.Now in tests; nil uses time.Now.
	Clock func() time.Time
	// OnCheckpoint, when non-nil, is called after every saved checkpoint
	// with the job ID and its progress in labellings — an observation
	// hook for operators and tests.
	OnCheckpoint func(id string, done, total int64)
}

// The manager's fixed bounds: nothing configures them.
const (
	// maxCheckpoints bounds the checkpoint store; the least recently
	// updated checkpoints (abandoned analyses) are discarded beyond it,
	// memory and disk file both.
	maxCheckpoints = 512
	// maxJobs bounds the job table; the oldest finished jobs are pruned
	// beyond it.
	maxJobs = 4096
	// maxPrepsPerDataset bounds the cached preparations (scrub + rank +
	// moment precompute state) kept per dataset entry, one per distinct
	// (labels, test, side, nonpara, NA) combination.
	maxPrepsPerDataset = 8
	// journalCompactEvery bounds the journal file: past this many frames
	// it is compacted to one submit record per live job.
	journalCompactEvery = 4096
	// interactiveWeight is how many interactive pops one bulk pop is
	// worth while both classes are backlogged.
	interactiveWeight = 4
)

// withDefaults fills every bound left below 1 (and every nil hook) with
// its documented default.
func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU() / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.DefaultNProcs < 1 {
		c.DefaultNProcs = runtime.GOMAXPROCS(0)
	}
	if c.DefaultEvery < 1 {
		c.DefaultEvery = 1000
	}
	if c.CacheSize < 1 {
		c.CacheSize = 128
	}
	if c.DatasetCacheSize < 1 {
		c.DatasetCacheSize = 32
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	if c.InteractiveMaxB < 1 {
		c.InteractiveMaxB = 10000
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// job is the manager's mutable record of one submission.  All fields are
// guarded by Manager.mu except class/tenant/enqueuedAt, which
// are immutable after Submit.
type job struct {
	id   string
	key  string
	spec Spec
	// ds is the dataset entry the job runs over, held from submission to
	// the terminal state: a pinned registry entry for dataset-id jobs, a
	// job-owned entry over the resolved cells for inline ones (the spec's
	// X/XFlat payloads are released once it exists).  Either way the
	// worker runs over the entry's shared preparation.
	ds *dsEntry

	tenant     string
	class      JobClass
	enqueuedAt time.Time

	state       State
	err         error
	done, total int64
	resumedFrom int64
	cacheHit    bool
	profile     core.Profile

	// Sequential-mode live progress (updated from the run's OnSeq hook):
	// rows still accumulating and per-row evaluations already saved.
	seqActiveRows int
	seqPermsSaved int64

	submittedAt, startedAt, finishedAt time.Time

	cancel          context.CancelFunc
	cancelRequested bool
}

func (j *job) status() Status {
	s := Status{
		ID:            j.id,
		Key:           j.key,
		State:         j.state,
		Done:          j.done,
		Total:         j.total,
		ResumedFrom:   j.resumedFrom,
		CacheHit:      j.cacheHit,
		NProcs:        j.spec.NProcs,
		Tenant:        j.tenant,
		Class:         j.class.String(),
		Mode:          j.spec.Opt.Mode,
		SeqActiveRows: j.seqActiveRows,
		SeqPermsSaved: j.seqPermsSaved,
		Profile:       j.profile,
		SubmittedAt:   j.submittedAt,
		StartedAt:     j.startedAt,
		FinishedAt:    j.finishedAt,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// ClassLatency is a per-class latency digest inside Stats.
type ClassLatency struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// Stats is the manager-wide counter snapshot served by /v1/stats: a
// view of the metrics registry, whose handles are the only counters.
// The pre-admission fields keep their names and meanings; the admission
// and observability plane appends, never renames.
type Stats struct {
	Submitted     int64 `json:"submitted"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Cancelled     int64 `json:"cancelled"`
	CacheHits     int64 `json:"cache_hits"`
	Resumed       int64 `json:"resumed"`
	Queued        int   `json:"queued"`
	Running       int   `json:"running"`
	QueueCap      int   `json:"queue_cap"`
	Workers       int   `json:"workers"`
	Jobs          int   `json:"jobs"`
	CachedResults int   `json:"cached_results"`
	Checkpoints   int   `json:"checkpoints"`
	// DatasetsAdded counts registrations that created a new entry (dedup
	// re-uploads don't count); Datasets and DatasetBytes snapshot the
	// in-memory registry.  PrepBuilds counts full preparations (scrub +
	// rank + moment precompute) actually built for dataset jobs;
	// PrepHits counts dataset jobs that reused one without building.
	DatasetsAdded int64 `json:"datasets_added"`
	Datasets      int   `json:"datasets"`
	DatasetBytes  int64 `json:"dataset_bytes"`
	PrepBuilds    int64 `json:"prep_builds"`
	PrepHits      int64 `json:"prep_hits"`
	// Kernel is the active two-sample accumulation kernel ISA
	// ("avx512", "avx2" or "generic" — process-wide runtime dispatch).
	Kernel string `json:"kernel"`
	// PermOrder describes the enumeration order policy every job runs
	// under.
	PermOrder string `json:"perm_order"`

	// ---- Admission / observability plane (PR 6) ----

	// QueuePolicy names the pop discipline, always "fair";
	// QueuedInteractive/QueuedBulk split Queued by class.
	QueuePolicy       string `json:"queue_policy"`
	QueuedInteractive int    `json:"queued_interactive"`
	QueuedBulk        int    `json:"queued_bulk"`
	// Shed* count admission refusals by reason; every one of them also
	// carried a Retry-After to the client.
	ShedQueueFull   int64 `json:"shed_queue_full"`
	ShedQueueWait   int64 `json:"shed_queue_wait"`
	ShedRateLimited int64 `json:"shed_rate_limited"`
	// QueueWait* digest the queue-age histograms per class.
	QueueWaitInteractive ClassLatency `json:"queue_wait_interactive"`
	QueueWaitBulk        ClassLatency `json:"queue_wait_bulk"`
	// DrainRatePerSec is the observed completion rate over the last 30s
	// — the denominator of every Retry-After.
	DrainRatePerSec float64 `json:"drain_rate_per_sec"`
	// Hit rates derived from the counters above, in [0,1]; 0 when the
	// denominator is 0.
	CacheHitRate float64 `json:"cache_hit_rate"`
	PrepHitRate  float64 `json:"prep_hit_rate"`
	// Dataset-plane reference traffic: registry answers from memory,
	// reloads from the disk mirror, LRU evictions.
	DatasetHits      int64 `json:"dataset_hits"`
	DatasetReloads   int64 `json:"dataset_reloads"`
	DatasetEvictions int64 `json:"dataset_evictions"`
	// TenantsActive counts tenants with resident admission state;
	// Tenants lists the busiest (top 32) with admitted/throttled counts.
	TenantsActive int          `json:"tenants_active"`
	Tenants       []TenantStat `json:"tenants,omitempty"`

	// ---- Durability / integrity plane (PR 8) ----

	// Recovering reports that journal replay re-admission is still in
	// progress (the readiness probe's signal).
	Recovering bool `json:"recovering"`
	// JournalPending counts journaled jobs not yet terminal;
	// JournalReplayed counts jobs re-admitted by this process's replay;
	// JournalCorruptFrames counts torn/corrupt frames dropped at replay;
	// JournalAppendErrors counts appends that failed (durability
	// degraded, service continued).
	JournalPending       int   `json:"journal_pending"`
	JournalReplayed      int64 `json:"journal_replayed"`
	JournalCorruptFrames int64 `json:"journal_corrupt_frames"`
	JournalAppendErrors  int64 `json:"journal_append_errors"`
	// CorruptCheckpoints and CorruptDatasets count integrity-frame or
	// digest failures detected on disk reads; each one was quarantined
	// and the affected work recomputed from an older prefix or scratch.
	CorruptCheckpoints int64 `json:"corrupt_checkpoints"`
	CorruptDatasets    int64 `json:"corrupt_datasets"`

	// ---- Sequential engine plane (additive) ----

	// SeqRowsStopped counts rows frozen before their planned permutation
	// count; SeqPermsSaved the per-row evaluations those freezes avoided;
	// SeqJobsEarlyStopped whole jobs that terminated before their planned
	// count.
	SeqRowsStopped      int64 `json:"seq_rows_stopped"`
	SeqPermsSaved       int64 `json:"seq_perms_saved"`
	SeqJobsEarlyStopped int64 `json:"seq_jobs_early_stopped"`
}

// Manager owns the queue, the worker pool, the result cache and the
// checkpoint store.  All methods are safe for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	seq      int64
	jobs     map[string]*job
	order    []string // submission order, for pruning
	cache    *resultCache
	ckpts    *core.Store
	datasets *dsStore

	queue   *fairQueue
	tenants *tenantLimiter
	drain   *drainMeter
	met     *mgrMetrics

	// journal is the write-ahead job log (nil when disabled);
	// recovering is set while replayed jobs are being re-admitted.
	journal    *jobJournal
	recovering atomic.Bool
	// ledgers holds replayed distributed merge ledgers by job id until
	// the job's first dispatch claims its state (guarded by mu).
	ledgers map[string]*LedgerState
	// onWindow feeds kernel-window wall times into the histogram; built
	// once here so the per-job RunControl assignment allocates nothing.
	onWindow func(perms int64, elapsed time.Duration)

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
}

// NewManager starts a manager with cfg.Workers workers.  Call Close to
// drain and stop it.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	met := newMgrMetrics(cfg.Metrics)
	// Quarantined checkpoint generations surface as a counter, never as
	// a job error: the read path falls back (older prefix, B=0).
	ckpts, err := core.OpenStore(core.StoreConfig{
		Dir: cfg.CheckpointDir, Ext: ".ckpt", Site: "ckpt", Max: maxCheckpoints,
		OnCorrupt: met.ckptCorrupt.Inc,
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: checkpoints: %w", err)
	}
	datasets, err := newDSStore(cfg.DatasetDir, cfg.DatasetCacheSize)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		jobs:      make(map[string]*job),
		cache:     newResultCache(cfg.CacheSize),
		ckpts:     ckpts,
		datasets:  datasets,
		queue:     newFairQueue(cfg.QueueDepth, interactiveWeight),
		tenants:   newTenantLimiter(cfg.TenantLimits),
		drain:     &drainMeter{},
		met:       met,
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	m.onWindow = func(perms int64, elapsed time.Duration) {
		m.met.kernelWin.ObserveDuration(elapsed)
	}
	// Evictions happen under m.mu at several call sites; one callback
	// counts them all.
	m.datasets.noteEvict = func(n int) { m.met.dsEvicted.Add(int64(n)) }
	// Corrupt dataset mirrors surface as a counter, never as a job
	// error — the read path falls back to a re-push.
	m.datasets.noteCorrupt = func(id string) { m.met.dsCorrupt.Inc() }

	// Journal replay happens BEFORE workers start: the replayed state
	// (sequence number, pending set) must be complete before any new
	// submission can mint an id or any worker can pop a job.
	var replay *journalReplay
	if cfg.JournalDir != "" {
		var err error
		m.journal, replay, err = openJournal(cfg.JournalDir, journalCompactEvery)
		if err != nil {
			return nil, err
		}
		m.seq = replay.MaxSeq
		m.met.journalCorrupt.Add(int64(replay.CorruptFrames))
		m.ledgers = replay.Ledgers
	}

	m.registerGauges(cfg.Metrics)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if replay != nil && len(replay.Pending) > 0 {
		// Re-admission runs in the background (dataset reloads can be
		// big); Recovering() stays true — and the readiness probe not
		// ready — until every journaled job is queued or failed.
		m.recovering.Store(true)
		m.wg.Add(1)
		go m.recover(replay)
	} else if m.journal != nil {
		// Nothing to replay: compact away the previous life's history.
		m.journal.compact()
	}
	return m, nil
}

// Recovering reports whether journal replay re-admission is still in
// progress.  The HTTP readiness probe reports not-ready while true.
func (m *Manager) Recovering() bool { return m.recovering.Load() }

// recover re-admits every non-terminal journaled job, in original
// submission order and under its original id.  Jobs whose dataset is
// gone (no mirror — e.g. a matrix submission journaled without a
// DatasetDir) are recorded as Failed: unrecoverable, but visible.
func (m *Manager) recover(replay *journalReplay) {
	defer m.wg.Done()
	defer m.recovering.Store(false)
	for _, rec := range replay.Pending {
		if !m.recoverJob(rec) {
			return // manager closed mid-recovery
		}
	}
	// Replay plus re-admission re-journaled nothing; rewrite the log to
	// the live set so the next restart replays one submit per job.
	m.journal.compact()
}

// recoverJob rebuilds one journaled job and re-admits it.  It returns
// false only when the manager is closing (stop recovery); corrupt or
// unrecoverable records are consumed and surfaced, not fatal.
func (m *Manager) recoverJob(rec *journalRecord) bool {
	spec := Spec{
		DatasetID: rec.Dataset,
		Labels:    rec.Labels,
		NProcs:    rec.NProcs,
		Every:     rec.Every,
		Tenant:    rec.Tenant,
		Class:     rec.Class,
	}
	if rec.Opt != nil {
		spec.Opt = *rec.Opt
	}
	fail := func(err error) bool {
		now := m.cfg.Clock()
		j := &job{
			id: rec.ID, key: rec.Key, tenant: rec.Tenant,
			state: Failed, err: fmt.Errorf("jobs: unrecoverable after restart: %w", err),
			submittedAt: now, finishedAt: now,
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return false
		}
		m.insertLocked(j)
		m.met.failed.Inc()
		m.mu.Unlock()
		m.journalAppend(&journalRecord{T: "fail", ID: rec.ID, Key: rec.Key})
		return true
	}

	class, err := m.normalize(&spec)
	if err != nil {
		return fail(err)
	}
	// The journaled key must equal the key this process would compute:
	// anything else is a corrupt or cross-version record, and running
	// the wrong analysis under a recycled id would be worse than
	// dropping it.
	key, err := jobKey(rec.Dataset, rec.Labels, spec.Opt)
	if err != nil || key != rec.Key {
		m.met.journalCorrupt.Inc()
		return true
	}
	ds, err := m.datasetRef(rec.Dataset)
	if err != nil {
		return fail(err)
	}

	m.mu.Lock()
	if m.closed {
		m.releaseDatasetLocked(ds)
		m.mu.Unlock()
		return false
	}
	now := m.cfg.Clock()
	j := &job{
		id:          rec.ID,
		key:         key,
		spec:        spec,
		ds:          ds,
		tenant:      rec.Tenant,
		class:       class,
		enqueuedAt:  now,
		state:       Queued,
		total:       spec.Opt.B,
		submittedAt: now,
	}
	m.insertLocked(j)
	m.met.journalReplayed.Inc()
	m.mu.Unlock()

	// The queue may be momentarily full of other replayed jobs; unlike
	// Submit, recovery must not shed — these jobs were already admitted
	// in a previous life.  Retry until space frees or the manager closes.
	for {
		m.mu.Lock()
		if m.closed {
			m.releaseJobLocked(j)
			m.mu.Unlock()
			return false
		}
		pushed := m.queue.tryPush(j)
		m.mu.Unlock()
		if pushed {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// journalAppend writes one record to the journal (no-op when
// journaling is disabled).  Append failures degrade durability, not
// service: they are counted and the job proceeds.
func (m *Manager) journalAppend(rec *journalRecord) {
	if m.journal == nil {
		return
	}
	start := time.Now()
	if err := m.journal.append(rec); err != nil {
		m.met.journalAppendErr.Inc()
		return
	}
	m.met.journalAppendD.ObserveDuration(time.Since(start))
	m.met.journalRecords.Inc()
}

// Metrics returns the registry the manager instruments.
func (m *Manager) Metrics() *metrics.Registry { return m.cfg.Metrics }

// normalize puts a submitted or replayed spec in the form the manager
// runs: canonical options and the NProcs/Every defaults.  It returns the
// spec's fairness class.
func (m *Manager) normalize(spec *Spec) (JobClass, error) {
	canon, err := core.CanonicalOptions(spec.Opt)
	if err != nil {
		return 0, err
	}
	spec.Opt = canon
	class, err := classFor(spec.Class, canon.B, m.cfg.InteractiveMaxB)
	if err != nil {
		return 0, err
	}
	if spec.NProcs < 1 {
		spec.NProcs = m.cfg.DefaultNProcs
	}
	if spec.Every < 1 {
		spec.Every = m.cfg.DefaultEvery
	}
	return class, nil
}

// shed records one admission refusal and builds the typed rejection the
// HTTP layer turns into 429 + Retry-After.
func (m *Manager) shed(reason string, sentinel error, retryAfter time.Duration, now time.Time) error {
	if retryAfter <= 0 {
		retryAfter = m.drain.retryAfter(m.queue.len(), now)
	}
	m.met.shed[reason].Inc()
	return &OverloadError{Reason: reason, RetryAfter: retryAfter, sentinel: sentinel}
}

// Submit validates the spec, answers it from the result cache when the
// content key is already computed, and otherwise runs it through the
// admission plane (tenant token bucket, queue bound, predicted-wait
// bound) and enqueues it in its fairness class.  It returns the initial
// status: Done with CacheHit set for a hit, Queued otherwise.  A refusal
// returns an *OverloadError wrapping ErrQueueFull or ErrRateLimited and
// carrying the Retry-After guidance; cache hits are exempt from
// admission control — they occupy no worker.
func (m *Manager) Submit(spec Spec) (Status, error) {
	class, err := m.normalize(&spec)
	if err != nil {
		return Status{}, err
	}
	// The content key is computed in place, whichever payload form was
	// submitted: cache hits and shed submissions never pay the matrix
	// copy that resolve makes.
	key, digest, err := spec.contentKey()
	if err != nil {
		return Status{}, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	if res, _ := m.cache.get(key); res != nil {
		now := m.cfg.Clock()
		m.seq++
		j := &job{
			id:          fmt.Sprintf("j%06d", m.seq),
			key:         key,
			spec:        Spec{Opt: spec.Opt, NProcs: spec.NProcs, Every: spec.Every},
			tenant:      spec.Tenant,
			class:       class,
			state:       Done,
			cacheHit:    true,
			done:        res.B,
			total:       res.B,
			submittedAt: now,
			startedAt:   now,
			finishedAt:  now,
		}
		m.met.submitted[class].Inc()
		m.met.cacheHits.Inc()
		m.insertLocked(j)
		m.mu.Unlock()
		return j.status(), nil
	}
	m.mu.Unlock()

	now := m.cfg.Clock()
	// Tenant token bucket: the submission costs one token whatever
	// happens next, so a client cannot probe the queue for free.
	if ok, refill := m.tenants.take(spec.Tenant, now); !ok {
		return Status{}, m.shed("rate_limited", ErrRateLimited, refill, now)
	}
	// Fast-fail before paying the resolve copy; the enqueue below
	// re-checks authoritatively.
	if m.queue.full() {
		return Status{}, m.shed("queue_full", ErrQueueFull, 0, now)
	}
	// Predicted-wait bound: when the backlog would take longer to drain
	// than the configured limit, shedding now with honest guidance beats
	// admitting a job that will time out in the queue.
	if m.cfg.MaxQueueWait > 0 {
		if rate := m.drain.ratePerSec(now); rate > 0 {
			est := time.Duration(float64(m.queue.len()+1) / rate * float64(time.Second))
			if est > m.cfg.MaxQueueWait {
				return Status{}, m.shed("queue_wait", ErrQueueFull, est, now)
			}
		}
	}

	// Cache miss: attach the job's dataset entry outside the lock.
	// Dataset submissions pin their registry entry (one reference held
	// until the job is terminal); matrix submissions make the engine's
	// private copy (the one copy) into a job-owned entry under the digest
	// inside the content key — a copy or transpose of the paper's
	// exon-array matrix takes milliseconds and must not stall API
	// handlers.
	var ds *dsEntry
	if spec.DatasetID != "" {
		ds, err = m.datasetRef(spec.DatasetID)
		if err != nil {
			return Status{}, err
		}
	} else {
		ingestStart := time.Now()
		data, err := spec.resolve()
		if err != nil {
			return Status{}, err
		}
		m.met.stageIngest.ObserveDuration(time.Since(ingestStart))
		spec.X, spec.XFlat = nil, nil // the entry supersedes the submission payload
		ds = newEntry(digest, data, 1, now)
		if m.journal != nil {
			// The mirror's and the journal's fsyncs below wait on the
			// disk: a job a free worker will take at once has its
			// preparation built meanwhile.
			m.prepEarly(ds, spec.Labels, spec.Opt)
			// The journal records datasets by content address only, so a
			// matrix submission becomes durable by mirroring its cells
			// into the dataset plane first.  The digest is the one
			// inside the content key, so the replayed dataset-id job
			// shares this job's cache and checkpoint identity exactly.
			// A failed mirror degrades durability (the job would replay
			// as unrecoverable), never service.
			if err := m.datasets.writeDisk(digest, data); err != nil {
				m.met.journalAppendErr.Inc()
			}
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.releaseDatasetLocked(ds)
		return Status{}, ErrClosed
	}
	now = m.cfg.Clock()
	m.seq++
	j := &job{
		id:          fmt.Sprintf("j%06d", m.seq),
		key:         key,
		spec:        spec,
		ds:          ds,
		tenant:      spec.Tenant,
		class:       class,
		enqueuedAt:  now,
		state:       Queued,
		total:       spec.Opt.B, // 0 for complete enumerations until planned
		submittedAt: now,
	}
	if !m.queue.tryPush(j) {
		m.releaseDatasetLocked(ds)
		m.mu.Unlock()
		err := m.shed("queue_full", ErrQueueFull, 0, now)
		m.mu.Lock() // restore for the deferred unlock
		return Status{}, err
	}
	m.met.submitted[class].Inc()
	m.insertLocked(j)
	// The write-ahead record lands (fsync'd) before Submit returns:
	// once the client holds the job id, a crash cannot forget the job.
	// Appending under m.mu is what orders this record before any
	// lifecycle record a fast worker could write.
	m.journalAppend(submitRecord(j))
	return j.status(), nil
}

// releaseJobLocked frees a terminal job's inputs: the labels and its
// dataset entry — a registry entry's reference, which protected it from
// eviction while the job was alive, or the job-owned entry itself with
// its (potentially very large) matrix.  Callers hold m.mu.
func (m *Manager) releaseJobLocked(j *job) {
	j.spec.Labels = nil
	if j.ds != nil {
		m.releaseDatasetLocked(j.ds)
		j.ds = nil
	}
}

// insertLocked records j and prunes the oldest finished jobs beyond
// maxJobs.  Callers hold m.mu.
func (m *Manager) insertLocked(j *job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if len(m.jobs) <= maxJobs {
		return
	}
	kept := m.order[:0]
	excess := len(m.jobs) - maxJobs
	for _, id := range m.order {
		if excess > 0 {
			if old, ok := m.jobs[id]; ok && old.state.Terminal() {
				delete(m.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns the status of a job.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Result returns the finished result of a job from the result cache,
// ErrNotDone while the job is still queued, running, cancelled or failed,
// and ErrResultEvicted once a done job's result has aged out of the cache.
func (m *Manager) Result(id string) (*core.Result, Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, Status{}, ErrUnknownJob
	}
	if j.state != Done {
		return nil, j.status(), ErrNotDone
	}
	res, ok := m.cache.get(j.key)
	if !ok {
		return nil, j.status(), ErrResultEvicted
	}
	return res, j.status(), nil
}

// Cancel stops a job.  A queued job is marked cancelled and skipped when a
// worker pops it; a running job's context is cancelled, and the job
// transitions once the run stops at its next window boundary (its last
// checkpoint is retained for resumption).  Cancelling a terminal job is a
// no-op.  The returned status reflects the state at return, which for a
// running job is usually still Running.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrUnknownJob
	}
	switch j.state {
	case Queued:
		j.state = Cancelled
		j.finishedAt = m.cfg.Clock()
		m.releaseJobLocked(j)
		m.met.cancelled.Inc()
		m.journalAppend(&journalRecord{T: "cancel", ID: j.id, Key: j.key})
	case Running:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.status(), nil
}

// StatsSnapshot returns the current counters, the admission-plane state
// and the queue-age digests.  Every counter is read from the metrics
// registry — the manager keeps no second count — under m.mu, so the
// snapshot is consistent with the job table: a state change a caller saw
// through Get is already counted here.
func (m *Manager) StatsSnapshot() Stats {
	qi, qb := m.queue.lens()
	drainRate := m.drain.ratePerSec(m.cfg.Clock())
	tenantsActive := m.tenants.active()
	tenants := m.tenants.snapshot(32)

	met := m.met
	m.mu.Lock()
	s := Stats{
		Submitted:     sumClasses(&met.submitted),
		Completed:     sumClasses(&met.completed),
		Failed:        met.failed.Value(),
		Cancelled:     met.cancelled.Value(),
		CacheHits:     met.cacheHits.Value(),
		Resumed:       met.resumed.Value(),
		QueueCap:      m.cfg.QueueDepth,
		Workers:       m.cfg.Workers,
		Jobs:          len(m.jobs),
		CachedResults: m.cache.len(),
		Checkpoints:   m.ckpts.Len(),
		DatasetsAdded: met.dsAdded.Value(),
		PrepBuilds:    met.prepBuilds.Value(),
		PrepHits:      met.prepHits.Value(),
		Kernel:        core.KernelName(),
		PermOrder:     core.PermOrderPolicy,

		QueuePolicy:       "fair",
		QueuedInteractive: qi,
		QueuedBulk:        qb,
		ShedQueueFull:     met.shed["queue_full"].Value(),
		ShedQueueWait:     met.shed["queue_wait"].Value(),
		ShedRateLimited:   met.shed["rate_limited"].Value(),
		DrainRatePerSec:   drainRate,
		DatasetHits:       met.dsHits.Value(),
		DatasetReloads:    met.dsReloads.Value(),
		DatasetEvictions:  met.dsEvicted.Value(),
		TenantsActive:     tenantsActive,
		Tenants:           tenants,

		Recovering:           m.recovering.Load(),
		JournalReplayed:      met.journalReplayed.Value(),
		JournalCorruptFrames: met.journalCorrupt.Value(),
		JournalAppendErrors:  met.journalAppendErr.Value(),
		CorruptCheckpoints:   met.ckptCorrupt.Value(),
		CorruptDatasets:      met.dsCorrupt.Value(),

		SeqRowsStopped:      met.seqRowsStopped.Value(),
		SeqPermsSaved:       met.seqPermsSaved.Value(),
		SeqJobsEarlyStopped: met.seqJobEarlyStop.Value(),
	}
	s.Queued, s.Running = m.liveJobsLocked()
	s.Datasets, s.DatasetBytes, _ = m.datasets.resident()
	m.mu.Unlock()

	if m.journal != nil {
		s.JournalPending = m.journal.pendingCount()
	}
	if s.Submitted > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(s.Submitted)
	}
	if prepTotal := s.PrepBuilds + s.PrepHits; prepTotal > 0 {
		s.PrepHitRate = float64(s.PrepHits) / float64(prepTotal)
	}
	digest := func(h *metrics.Histogram) ClassLatency {
		return ClassLatency{
			Count: h.Count(),
			P50Ms: h.Quantile(0.50) * 1000,
			P99Ms: h.Quantile(0.99) * 1000,
		}
	}
	s.QueueWaitInteractive = digest(met.queueWait[ClassInteractive])
	s.QueueWaitBulk = digest(met.queueWait[ClassBulk])
	return s
}

// Close stops the manager: no new submissions are accepted, running jobs
// are cancelled at their next window boundary (checkpoints retained), and
// Close returns once every worker has exited.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancelAll()
	m.queue.close()
	m.wg.Wait()
	if m.journal != nil {
		m.journal.close()
	}
}

// resumeFor is the job's one resume verdict, made before dispatch: the
// stored checkpoint under the job's key, judged by Plan.Resume — the
// rule core.RunPrepared, the coordinator and every shard apply — over
// the whole run.  A rejected record (engine drift, a stale fingerprint,
// an enumeration the plan now folds) is dropped so it cannot poison the
// key, and the job runs fresh; an accepted one is recorded as the job's
// resume point, in labellings.  The store verified the record when it
// read it from disk, so a decode error cannot happen here.  It returns
// the job's plan too.
func (m *Manager) resumeFor(j *job, prepared *core.Prepared) (core.Plan, *core.Checkpoint, error) {
	plan, err := core.PlanRun(prepared, j.spec.Opt)
	if err != nil {
		return plan, nil, err
	}
	ck, _ := core.DecodeRecord(m.ckpts.Get(j.key))
	if ck == nil {
		return plan, nil, nil
	}
	if _, _, err := plan.Resume(ck, 0, plan.TotalB); err != nil {
		m.ckpts.Drop(j.key)
		return plan, nil, nil
	}
	m.mu.Lock()
	j.resumedFrom, j.done = plan.Labellings(ck.Next), plan.Labellings(ck.Done)
	m.met.resumed.Inc()
	m.mu.Unlock()
	return plan, ck, nil
}

// worker pops jobs from the fair queue and runs them to a terminal
// state.  Each worker owns one RunScratch for its whole lifetime: kernel
// scratch, permutation batch buffers and partial-count vectors are
// reused across jobs instead of reallocated, so the steady-state worker
// path stays allocation-light (asserted by BenchmarkWorkerJobReuse).
func (m *Manager) worker() {
	defer m.wg.Done()
	scratch := &core.RunScratch{}
	for {
		j, ok := m.queue.pop()
		if !ok {
			return
		}
		m.run(j, scratch)
	}
}

// run executes one job: the shared preparation of its dataset entry,
// the resume verdict on its stored checkpoint, then the distributor or
// core.RunPrepared — one path, however the job was submitted.
func (m *Manager) run(j *job, scratch *core.RunScratch) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	popped := m.cfg.Clock()
	m.met.queueWait[j.class].ObserveDuration(popped.Sub(j.enqueuedAt))

	m.mu.Lock()
	if j.state != Queued { // cancelled while waiting
		m.mu.Unlock()
		return
	}
	if m.baseCtx.Err() != nil { // shutting down: drain without running
		j.state = Cancelled
		j.finishedAt = m.cfg.Clock()
		m.releaseJobLocked(j)
		m.met.cancelled.Inc()
		m.mu.Unlock()
		return
	}
	j.state = Running
	j.startedAt = popped
	j.cancel = cancel
	e := j.ds // held until the terminal state below releases it
	m.mu.Unlock()

	// The entry's preparation is built once per (dataset, labels, prep
	// options) key and reused read-only by every later job on that key,
	// so a hot-prep job goes from queue pop to its first permutation
	// without scrubbing, ranking or precomputing anything.
	prepared, built, err := m.prepFromEntry(e, j.spec.Labels, j.spec.Opt)
	var plan core.Plan
	var resume *core.Checkpoint
	if err == nil {
		plan, resume, err = m.resumeFor(j, prepared)
	}
	var res *core.Result
	distributed := false
	// A coordinator hands the job to its distributor first; a declined
	// job (ErrNotDistributed) falls through to the local path below,
	// which computes the identical bits on this node alone.
	if err == nil && m.cfg.Distributor != nil {
		res, err = m.runDistributed(ctx, j, e, prepared, resume)
		if errors.Is(err, ErrNotDistributed) {
			res, err = nil, nil
		} else {
			distributed = true
		}
	}
	if err == nil && !distributed {
		res, err = core.RunPrepared(prepared, j.spec.Opt, core.RunControl{
			Ctx:      ctx,
			NProcs:   j.spec.NProcs,
			Resume:   resume,
			Every:    j.spec.Every,
			Scratch:  scratch,
			OnWindow: m.onWindow,
			Save: func(ck *core.Checkpoint) error {
				// A failed write fails the job: truthful failure beats
				// silent loss of the progress a restart would resume.
				writeStart := time.Now()
				if err := m.ckpts.Put(j.key, ck.AppendRecord(nil)); err != nil {
					return err
				}
				m.met.ckptWrite.ObserveDuration(time.Since(writeStart))
				if m.cfg.OnCheckpoint != nil {
					m.cfg.OnCheckpoint(j.id, plan.Labellings(ck.Done), plan.Labellings(ck.TotalB))
				}
				return nil
			},
			OnProgress: func(done, total int64) {
				m.mu.Lock()
				j.done, j.total = done, total
				m.mu.Unlock()
			},
			OnSeq: func(activeRows int, permsSaved int64) {
				m.mu.Lock()
				j.seqActiveRows, j.seqPermsSaved = activeRows, permsSaved
				m.mu.Unlock()
			},
		})
	}
	if err == nil && built {
		prepared.ChargeBuild(&res.Profile)
	}

	finished := m.cfg.Clock()
	m.drain.observe(finished)
	m.met.jobDuration[j.class].ObserveDuration(finished.Sub(popped))

	if err == nil {
		// The result lands in the cache below, so the checkpoint has
		// nothing left to resume; deferred first, it runs after Unlock.
		defer m.ckpts.Drop(j.key)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j.finishedAt = finished
	// The inputs are no longer needed once the job is terminal; release
	// the (potentially very large) matrix — and the dataset reference —
	// so finished jobs don't pin them.
	m.releaseJobLocked(j)
	switch {
	case err == nil:
		j.state = Done
		j.profile = res.Profile
		j.done, j.total = res.B, res.B
		if res.Sequential() {
			// Keep the planned total visible so an early stop reads as
			// done < total, not as a silently shrunken job.
			j.total = res.PlannedB
			j.seqActiveRows = 0
			j.seqPermsSaved = res.SeqPermsSaved()
			m.met.seqRowsStopped.Add(int64(res.SeqRowsStopped()))
			m.met.seqPermsSaved.Add(res.SeqPermsSaved())
			if res.B < res.PlannedB {
				m.met.seqJobEarlyStop.Inc()
			}
		}
		m.cache.put(j.key, res)
		m.met.completed[j.class].Inc()
		m.journalAppend(&journalRecord{T: "done", ID: j.id, Key: j.key})
	case j.cancelRequested || errors.Is(err, context.Canceled):
		// Cancelled (or shut down): the checkpoint store keeps the last
		// window so an identical resubmission resumes from it.
		j.state = Cancelled
		j.err = err
		m.met.cancelled.Inc()
		if j.cancelRequested {
			// Only USER cancellations are journaled terminal.  A
			// shutdown-driven cancellation leaves the job pending in the
			// journal on purpose: those are exactly the jobs a restart
			// must revive and resume.
			m.journalAppend(&journalRecord{T: "cancel", ID: j.id, Key: j.key})
		}
	default:
		j.state = Failed
		j.err = err
		m.met.failed.Inc()
		m.journalAppend(&journalRecord{T: "fail", ID: j.id, Key: j.key})
	}
}
