package jobs

import (
	"context"
	"errors"
	"time"

	"sprint/internal/core"
	"sprint/internal/matrix"
)

// This file is the jobs layer's two-sided surface for cluster mode,
// kept dependency-free of internal/cluster (cluster imports jobs, never
// the reverse):
//
//   - Coordinator side: a Manager configured with a Distributor hands
//     popped jobs to it instead of running them on the local kernel.
//     The distributor may decline (ErrNotDistributed) — no live
//     workers, B too small to be worth shipping — and the job falls
//     back to the bit-identical local path.
//   - Worker side: PreparedDataset resolves a shard request's
//     content-addressed dataset id to the registry's shared
//     preparation, pinning the entry for the duration of the shard so
//     LRU eviction cannot race a running shard.  One Prepare per
//     (dataset, labels, prep options) serves every shard, exactly as it
//     serves every local job.

// DistRequest carries everything a distributor needs to run one job's
// permutation plan across the cluster.
type DistRequest struct {
	// Key is the job's content key (cache/checkpoint identity).
	Key string
	// DatasetID is the content address workers pull the dataset by.  It
	// is always set: an inline submission's job-owned entry carries the
	// digest taken at submission, so no matrix bytes ride the shard path
	// either way.
	DatasetID string
	// Matrix holds the coordinator-resident cells, used only to push
	// the dataset to a worker that answers 404 for DatasetID.
	Matrix matrix.Matrix
	// Labels and Opt (canonical) define the analysis.
	Labels []int
	Opt    core.Options
	// Prepared is the coordinator's shared preparation: the distributor
	// plans, fingerprints and finalizes against it, and computes local
	// fallback shards over it.
	Prepared *core.Prepared
	// Resume, when non-nil, is the job's saved prefix checkpoint; a
	// distributor whose plan fingerprint matches merges it as an
	// already-computed shard covering [0, Resume.Next).
	Resume *core.Checkpoint
	// NProcs and Every are the submitter's rank count and window, for
	// coordinator-local fallback shards.
	NProcs int
	Every  int64
	// OnProgress observes merged permutation counts, in labellings, as
	// shards land.
	OnProgress func(done, total int64)
	// Ledger is the job's durable merge ledger handle (nil when the
	// manager has no journal).  The distributor adopts its replayed
	// state after a coordinator restart and journals the plan and every
	// accepted delivery through it.
	Ledger *JobLedger
}

// Distributor runs one job's permutation plan across worker nodes and
// returns the finalized result, bitwise identical to a local run.  A
// distributor that declines the job returns ErrNotDistributed and the
// manager runs it locally.
type Distributor interface {
	RunJob(ctx context.Context, req DistRequest) (*core.Result, error)
}

// ErrNotDistributed is returned by a Distributor that declines a job:
// the manager falls back to the local execution path.
var ErrNotDistributed = errors.New("jobs: job not distributed")

// runDistributed builds the dispatch request for one popped job over
// its entry e and hands it to the configured distributor.  e is held
// from submission to the terminal state, so its matrix is immutable and
// safe to alias here.
func (m *Manager) runDistributed(ctx context.Context, j *job, e *dsEntry, prepared *core.Prepared, resume *core.Checkpoint) (*core.Result, error) {
	return m.cfg.Distributor.RunJob(ctx, DistRequest{
		Key:       j.key,
		DatasetID: e.id,
		Matrix:    e.m,
		Labels:    j.spec.Labels,
		Opt:       j.spec.Opt,
		Prepared:  prepared,
		Resume:    resume,
		NProcs:    j.spec.NProcs,
		Every:     j.spec.Every,
		OnProgress: func(done, total int64) {
			m.mu.Lock()
			j.done, j.total = done, total
			m.mu.Unlock()
		},
		Ledger: m.ledgerFor(j),
	})
}

// PreparedDataset is the worker-side shard surface: it resolves a
// content-addressed dataset id to the registry's shared preparation for
// (labels, opt), building it on first use exactly like a local dataset
// job would.  The returned release function drops the reference that
// pins the dataset entry for the caller; it must be called once the
// shard is done with the preparation.
func (m *Manager) PreparedDataset(id string, labels []int, opt core.Options) (*core.Prepared, func(), error) {
	canon, err := core.CanonicalOptions(opt)
	if err != nil {
		return nil, nil, err
	}
	e, err := m.datasetRef(id)
	if err != nil {
		return nil, nil, err
	}
	release := func() {
		m.mu.Lock()
		m.releaseDatasetLocked(e)
		m.mu.Unlock()
	}
	p, _, err := m.prepFromEntry(e, labels, canon)
	if err != nil {
		release()
		return nil, nil, err
	}
	return p, release, nil
}

// prepFromEntry returns the entry's shared preparation for (labels,
// opt), building it on first use; built reports that this call is the
// first to take the slot's preparation, and so pays for its build —
// whoever ran it, a racing first user or Submit's early start.
// Concurrent first users of one key block on a single build; everyone
// else reuses the cached value.  opt must be canonical and the caller
// must hold a reference on e.
func (m *Manager) prepFromEntry(e *dsEntry, labels []int, opt core.Options) (p *core.Prepared, built bool, err error) {
	m.mu.Lock()
	now := m.cfg.Clock()
	slot := prepSlotFor(e, opt, labels, now)
	m.datasets.touch(e, now)
	m.mu.Unlock()

	m.buildSlot(slot, e, labels, opt)
	// Exactly one caller per slot observes built; everyone else reused a
	// preparation they did not pay for.
	built = slot.claimed.CompareAndSwap(false, true)
	if built {
		m.met.prepBuilds.Inc()
	} else {
		m.met.prepHits.Inc()
	}
	return slot.prepared, built, slot.err
}

// buildSlot builds the slot's preparation once: the jobs layer's only
// core.Prepare call, for registry and job-owned entries alike.  A caller
// that arrives during the build waits for it.
func (m *Manager) buildSlot(slot *prepSlot, e *dsEntry, labels []int, opt core.Options) {
	slot.once.Do(func() {
		buildStart := time.Now()
		slot.prepared, slot.err = core.Prepare(e.m, labels, opt)
		m.met.stagePrep.ObserveDuration(time.Since(buildStart))
	})
}

// prepEarly starts the build of an inline job's preparation on its own
// goroutine when a free worker will take the job at once, so the build
// runs while Submit waits on the mirror's and the journal's fsyncs; the
// worker's prepFromEntry then finds it built, or waits on the slot's
// Once, and is charged for it as if it had built it.  A job that will
// wait in the queue starts nothing: its preparation is built when a
// worker pops it, as for every other job.  Close waits for the build.
func (m *Manager) prepEarly(e *dsEntry, labels []int, opt core.Options) {
	if !m.queue.idle() {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	slot := prepSlotFor(e, opt, labels, m.cfg.Clock())
	m.wg.Add(1) // under m.mu with closed unset: ordered before Close's Wait
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		m.buildSlot(slot, e, labels, opt)
	}()
}
