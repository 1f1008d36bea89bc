package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sprint/internal/core"
	"sprint/internal/jobs"
	"sprint/internal/metrics"
)

// PrepSource resolves a content-addressed dataset id to a shared
// preparation, pinning the dataset until the release function is
// called.  *jobs.Manager implements it: shards reuse the same registry,
// disk mirror and per-dataset prep cache as local jobs.
type PrepSource interface {
	PreparedDataset(id string, labels []int, opt core.Options) (*core.Prepared, func(), error)
}

// WorkerConfig configures a worker node's shard service.
type WorkerConfig struct {
	// Source resolves dataset ids to shared preparations; normally the
	// daemon's *jobs.Manager.
	Source PrepSource
	// Client performs the join/deregister control RPCs; nil uses a
	// private client with joinTimeout.  Control calls must never hang:
	// a heartbeat stuck on a half-open coordinator connection would
	// stall the whole heartbeat loop and expire the membership.
	Client *http.Client
	// NProcs is the default rank count per shard (0 = all CPUs); a
	// shard request carrying its own NProcs wins.
	NProcs int
	// Every is the window length of the shard compute loop, in
	// permutations — the drain granularity: a draining worker stops at
	// the next window boundary and ships the prefix.  Defaults to 1000.
	Every int64
	// RetentionDir, when set, disk-backs the retained-result cache so
	// shard results survive a worker restart too.  Empty keeps retention
	// in memory only.
	RetentionDir string
	// Metrics receives the worker-side cluster series, which Info reads
	// back; nil gets a private registry.
	Metrics *metrics.Registry
	// Logger receives shard lifecycle logs; nil discards.
	Logger *slog.Logger
}

// The worker's fixed bounds: nothing configures them.
const (
	// joinTimeout bounds one registration or deregistration RPC.
	joinTimeout = 5 * time.Second
	// maxConcurrent bounds concurrently computing shards (further
	// requests queue on the semaphore).
	maxConcurrent = 2
	// maxRetained bounds the retained-result cache (LRU past it).
	maxRetained = 128
)

// Worker serves shard compute requests on a daemon.  It is mounted on
// the daemon's instrumented mux via Routes and drained via Drain before
// shutdown.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	sem       chan struct{}
	draining  atomic.Bool
	drainCtx  context.Context
	drainStop context.CancelFunc

	scratch sync.Pool // *core.RunScratch, reused across shards

	mu          sync.Mutex
	coordinator string // joined coordinator base URL, for Info
	active      int
	// tasks singleflights re-probes of a window that is still
	// computing, keyed like retain (see retainKey).
	tasks map[string]*shardTask
	// retain keeps every computed window's counts record — complete or
	// a parked partial prefix — so a coordinator that restarts and
	// re-probes the window gets it back without recomputation.  It has
	// its own lock; nothing holds mu across its disk I/O.  A disown never
	// purges it: a restarted coordinator's lease heartbeat cannot list
	// jobs its ledger replay has not re-admitted yet, and the
	// parked results are exactly what that replay comes back for.
	retain *core.Store

	// The registry handles are the worker's only counters; Info reads
	// them back.
	metServed          *metrics.Counter
	metPartial         *metrics.Counter
	metRefused         map[string]*metrics.Counter
	metCompute         *metrics.Histogram
	metJoinTime        *metrics.Counter
	metRetainedHits    *metrics.Counter
	metRetainedResumes *metrics.Counter
	metInflightJoins   *metrics.Counter
	metLeaseRenewed    *metrics.Counter
	metLeaseExpired    *metrics.Counter
	metLeaseDisowned   *metrics.Counter

	hb struct {
		sync.Mutex
		stop context.CancelFunc
		done chan struct{}
	}
}

// NewWorker builds a worker shard service over src.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Every < 1 {
		cfg.Every = 1000
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: joinTimeout}
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		cfg:       cfg,
		client:    cfg.Client,
		sem:       make(chan struct{}, maxConcurrent),
		drainCtx:  ctx,
		drainStop: cancel,
		tasks:     make(map[string]*shardTask),
	}
	sc := core.StoreConfig{Dir: cfg.RetentionDir, Ext: ".shard", Site: "retain", Max: maxRetained}
	rt, err := core.OpenStore(sc)
	if err != nil {
		// A broken retention dir degrades to memory-only retention:
		// crash tolerance shrinks, shard service does not.
		cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "cluster_retention_disabled",
			slog.String("dir", cfg.RetentionDir), slog.String("error", err.Error()))
		sc.Dir = ""
		rt, _ = core.OpenStore(sc)
	}
	w.retain = rt
	w.scratch.New = func() any { return &core.RunScratch{} }
	reg := cfg.Metrics
	reg.Help("cluster_worker_shards_served_total", "Shard requests answered with complete counts.")
	reg.Help("cluster_worker_shards_partial_total", "Shard requests answered with a drained partial prefix.")
	reg.Help("cluster_worker_shards_refused_total", "Shard requests refused, by reason.")
	reg.Help("cluster_worker_shard_compute_seconds", "Wall time computing one shard's counts.")
	reg.Help("cluster_rpc_timeout_total", "Cluster RPCs that hit their deadline, by call.")
	w.metJoinTime = reg.Counter("cluster_rpc_timeout_total", "call", "join")
	w.metServed = reg.Counter("cluster_worker_shards_served_total")
	w.metPartial = reg.Counter("cluster_worker_shards_partial_total")
	w.metRefused = map[string]*metrics.Counter{
		reasonDraining:       reg.Counter("cluster_worker_shards_refused_total", "reason", reasonDraining),
		reasonUnknownDataset: reg.Counter("cluster_worker_shards_refused_total", "reason", reasonUnknownDataset),
		reasonFingerprint:    reg.Counter("cluster_worker_shards_refused_total", "reason", reasonFingerprint),
		reasonLease:          reg.Counter("cluster_worker_shards_refused_total", "reason", reasonLease),
	}
	w.metCompute = reg.Histogram("cluster_worker_shard_compute_seconds", metrics.DefLatencyBuckets)
	reg.Help("cluster_worker_retained_hits_total", "Shard re-probes served whole from the retained-result cache, no recomputation.")
	reg.Help("cluster_worker_retained_resumes_total", "Shard computes resumed from a parked partial result.")
	reg.Help("cluster_worker_retained_results", "Shard results currently retained.")
	reg.Help("cluster_worker_inflight_joins_total", "Shard re-probes that attached to an identical in-flight compute.")
	reg.Help("cluster_lease_renewed_total", "Shard lease renewals applied on this worker.")
	reg.Help("cluster_lease_expired_total", "Shard computes cancelled by lease expiry and parked in retention.")
	reg.Help("cluster_lease_disowned_total", "Shard computes cancelled because a coordinator heartbeat disowned them.")
	w.metRetainedHits = reg.Counter("cluster_worker_retained_hits_total")
	w.metRetainedResumes = reg.Counter("cluster_worker_retained_resumes_total")
	w.metInflightJoins = reg.Counter("cluster_worker_inflight_joins_total")
	w.metLeaseRenewed = reg.Counter("cluster_lease_renewed_total")
	w.metLeaseExpired = reg.Counter("cluster_lease_expired_total")
	w.metLeaseDisowned = reg.Counter("cluster_lease_disowned_total")
	reg.GaugeFunc("cluster_worker_retained_results", func() float64 {
		return float64(w.retained())
	})
	return w
}

// Role implements Node.
func (w *Worker) Role() string { return "worker" }

// Routes implements Node: the shard compute endpoint and the lease
// heartbeat.
func (w *Worker) Routes() []Route {
	return []Route{
		{Method: "POST", Pattern: ShardPath, Handler: w.handleShard},
		{Method: "POST", Pattern: LeasesPath, Handler: w.handleLeases},
	}
}

// Info implements Node.
func (w *Worker) Info() Info {
	w.mu.Lock()
	coord, active := w.coordinator, w.active
	w.mu.Unlock()
	return Info{
		Role: "worker",
		Worker: &WorkerNodeInfo{
			Coordinator:     coord,
			Draining:        w.draining.Load(),
			ShardsActive:    active,
			ShardsServed:    w.metServed.Value(),
			ShardsPartial:   w.metPartial.Value(),
			ShardsRefused:   sumCounters(w.metRefused),
			ShardsRetained:  w.retained(),
			RetainedHits:    w.metRetainedHits.Value(),
			RetainedResumes: w.metRetainedResumes.Value(),
			InflightJoins:   w.metInflightJoins.Value(),
			LeaseRenewed:    w.metLeaseRenewed.Value(),
			LeaseExpired:    w.metLeaseExpired.Value(),
			LeaseDisowned:   w.metLeaseDisowned.Value(),
		},
	}
}

// retained counts the shard results held in retention: the one
// definition behind Info's shards_retained and the
// cluster_worker_retained_results gauge.
func (w *Worker) retained() int { return w.retain.Len() }

// Draining reports whether Drain has been called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Drain stops accepting new shards and cancels in-flight shard
// contexts; each in-flight shard stops at its next window boundary and
// its handler responds with the partial prefix, which the coordinator
// merges and re-dispatches around.  The HTTP server's own Shutdown then
// waits for those responses to flush.  Drain is idempotent.
func (w *Worker) Drain() {
	if w.draining.CompareAndSwap(false, true) {
		w.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "cluster_worker_draining")
		w.drainStop()
		w.stopHeartbeat()
	}
}

// refusal counts a refused shard and returns its outcome.
func (w *Worker) refusal(status int, reason, msg string) *shardOutcome {
	w.metRefused[reason].Inc()
	return &shardOutcome{status: status, body: errorBody{Error: msg, Reason: reason}}
}

// shardTask is one in-flight shard compute, shared by the original
// requester and any re-probe of the same window that attaches to it
// (a restarted coordinator re-dispatching while the compute still
// runs).  lease and disowned are guarded by the worker mutex; cancel is
// set at registration and never changes; out is published before done
// closes and immutable afterwards.
type shardTask struct {
	fp       uint64
	done     chan struct{}
	out      *shardOutcome
	lease    time.Time
	disowned bool
	cancel   context.CancelFunc
}

// shardOutcome is a compute's result as it is delivered to every
// requester: a complete or partial counts record, or a status + error
// body.
type shardOutcome struct {
	status int
	rec    []byte
	body   errorBody
}

func writeOutcome(rw http.ResponseWriter, out *shardOutcome) {
	if out.rec != nil {
		writeCounts(rw, out.rec)
		return
	}
	writeClusterJSON(rw, out.status, out.body)
}

// writeCounts answers 200 with one counts record.
func writeCounts(rw http.ResponseWriter, rec []byte) {
	rw.Header().Set("Content-Type", countsContentType)
	rw.Header().Set("Content-Length", strconv.Itoa(len(rec)))
	rw.WriteHeader(http.StatusOK)
	rw.Write(rec)
}

// handleShard serves one shard window.  In order: a request that breaks
// the ShardRequest contract is refused; a retained complete result is
// re-delivered without recomputation; a re-probe of a window that is
// already computing attaches to it (renewing its lease); and otherwise
// the window computes — resuming from a parked partial prefix when
// retention holds one — with the result parked in retention for the
// next re-probe.
func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		writeOutcome(rw, w.refusal(http.StatusServiceUnavailable, reasonDraining, "worker draining"))
		return
	}
	var req ShardRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		writeClusterJSON(rw, http.StatusBadRequest, errorBody{Error: "bad shard request: " + err.Error()})
		return
	}
	if req.Options.Mode == core.ModeSequential {
		// A coordinator rewrites sequential jobs to exact shards before
		// dispatch; a sequential shard request means a version-skewed or
		// misbehaving coordinator.  Refuse loudly rather than let
		// core.RunShard's rejection read as a generic shard failure.
		writeClusterJSON(rw, http.StatusBadRequest, errorBody{Error: "sequential mode never dispatches to workers: shards compute exact counts, the coordinator applies the stopping rule to the merge"})
		return
	}
	if req.Fingerprint == 0 || req.TotalB <= 0 || req.LeaseMS <= 0 {
		writeClusterJSON(rw, http.StatusBadRequest, errorBody{Error: "bad shard request: fingerprint, total_b and lease_ms are required"})
		return
	}
	k := retainKey(&req)
	lease := time.Now().Add(time.Duration(req.LeaseMS) * time.Millisecond)
	w.mu.Lock()
	if t := w.tasks[k]; t != nil {
		// Attach to the identical in-flight compute; the re-probe is
		// fresh evidence of coordinator interest, so it renews the lease.
		if lease.After(t.lease) {
			t.lease = lease
		}
		w.mu.Unlock()
		w.metInflightJoins.Inc()
		select {
		case <-t.done:
			writeOutcome(rw, t.out)
		case <-r.Context().Done():
		}
		return
	}
	// The compute's lifetime is the task's, not the requester's: drain,
	// lease expiry or a disown cancel it — never the requester's death.
	ctx, cancel := context.WithCancel(w.drainCtx)
	t := &shardTask{fp: req.Fingerprint, done: make(chan struct{}), lease: lease, cancel: cancel}
	w.tasks[k] = t
	w.mu.Unlock()
	// Looked up only once the task is registered: a compute retains its
	// record before it deregisters, so a re-probe that finds no task
	// finds the record.
	rec := w.retain.Get(k)
	prev, _ := core.DecodeRecord(rec)
	var out *shardOutcome
	if prev != nil && prev.Next == prev.Hi {
		w.metRetainedHits.Inc()
		w.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "cluster_shard_retained_hit",
			slog.Int64("lo", req.Lo), slog.Int64("hi", req.Hi))
		out = &shardOutcome{status: http.StatusOK, rec: rec}
	} else {
		go w.watchLease(t)
		out = w.computeShard(ctx, &req, t, prev)
	}
	cancel()
	t.out = out
	w.mu.Lock()
	delete(w.tasks, k)
	w.mu.Unlock()
	close(t.done)
	writeOutcome(rw, out)
}

// retainKey names a window in retention and the task map:
// "<fingerprint>-<lo>-<hi>", also the retained file's name.
func retainKey(req *ShardRequest) string {
	return fmt.Sprintf("%016x-%d-%d", req.Fingerprint, req.Lo, req.Hi)
}

// computeShard runs the validate → compute → retain pipeline for one
// window under the task's context and returns the outcome every
// requester of the window gets; a cancelled prefix parks in retention.
// prev is the window's retained partial record, if any.
func (w *Worker) computeShard(ctx context.Context, req *ShardRequest, task *shardTask, prev *core.Checkpoint) *shardOutcome {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		if w.draining.Load() {
			return w.refusal(http.StatusServiceUnavailable, reasonDraining, "worker draining")
		}
		return w.refusal(http.StatusServiceUnavailable, reasonLease, "shard lease lapsed before compute started")
	}
	defer func() { <-w.sem }()

	prep, release, err := w.cfg.Source.PreparedDataset(req.DatasetID, req.Labels, req.Options)
	if err != nil {
		if errors.Is(err, jobs.ErrUnknownDataset) {
			return w.refusal(http.StatusNotFound, reasonUnknownDataset, "unknown dataset "+req.DatasetID)
		}
		return &shardOutcome{status: http.StatusBadRequest, body: errorBody{Error: err.Error()}}
	}
	defer release()

	plan, err := core.PlanRun(prep, req.Options)
	if err != nil {
		return &shardOutcome{status: http.StatusBadRequest, body: errorBody{Error: err.Error()}}
	}
	// The fingerprint covers engine version, options, enumeration
	// order, labels and a data sample: if this node would enumerate a
	// different sequence than the coordinator planned, computing would
	// merge wrong counts — refuse instead.
	if req.Fingerprint != plan.Fingerprint {
		return w.refusal(http.StatusConflict, reasonFingerprint,
			fmt.Sprintf("plan fingerprint %016x != coordinator %016x", plan.Fingerprint, req.Fingerprint))
	}
	if req.TotalB != plan.TotalB {
		return w.refusal(http.StatusConflict, reasonFingerprint,
			fmt.Sprintf("plan B %d != coordinator %d", plan.TotalB, req.TotalB))
	}

	// A parked partial prefix of this exact window (lease lapsed or the
	// worker drained in a previous probe) seeds the compute: only the
	// remainder is recomputed, and the counts stay bitwise identical.
	// One that fails the plan's resume rule is ignored.
	var resume *core.Checkpoint
	if _, _, err := plan.Resume(prev, req.Lo, req.Hi); prev != nil && err == nil {
		resume = prev
		w.metRetainedResumes.Inc()
	}

	nprocs := req.NProcs
	if nprocs < 1 {
		nprocs = w.cfg.NProcs
	}
	scratch := w.scratch.Get().(*core.RunScratch)
	defer w.scratch.Put(scratch)
	w.mu.Lock()
	w.active++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.active--
		w.mu.Unlock()
	}()

	start := time.Now()
	sc, runErr := core.RunShard(prep, req.Options, req.Lo, req.Hi, core.RunControl{
		Ctx:     ctx,
		NProcs:  nprocs,
		Every:   w.cfg.Every,
		Resume:  resume,
		Scratch: scratch,
	})
	elapsed := time.Since(start)
	w.metCompute.ObserveDuration(elapsed)
	if runErr != nil && (sc == nil || sc.Next <= req.Lo) {
		// Nothing useful computed.  A drain-cancelled shard is refused
		// so the coordinator redispatches it whole; anything else is a
		// plain error.
		if w.draining.Load() {
			return w.refusal(http.StatusServiceUnavailable, reasonDraining, "worker draining")
		}
		if w.leaseLapsed(task) {
			return w.refusal(http.StatusServiceUnavailable, reasonLease, "shard lease lapsed")
		}
		return &shardOutcome{status: http.StatusInternalServerError, body: errorBody{Error: runErr.Error()}}
	}
	// The result is encoded once: these bytes are sent, retained and
	// written to disk as they are.
	rec := sc.Checkpoint().AppendRecord(nil)
	partial := sc.Next < sc.Hi
	// Park the result — complete or partial — for re-delivery: this is
	// what makes a coordinator restart recomputation-free.  A failed
	// write degrades to memory-only retention: the record still serves
	// this life, it just will not survive the next one.
	w.retain.Put(retainKey(req), rec)
	if partial {
		w.metPartial.Inc()
	} else {
		w.metServed.Inc()
	}
	w.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "cluster_shard_served",
		slog.String("job_key", req.JobKey),
		slog.String("dataset", req.DatasetID),
		slog.Int64("lo", sc.Lo), slog.Int64("next", sc.Next), slog.Int64("hi", req.Hi),
		slog.Bool("partial", partial),
		slog.Bool("resumed", resume != nil),
		slog.Duration("elapsed", elapsed),
	)
	return &shardOutcome{status: http.StatusOK, rec: rec}
}

// leaseLapsed reports whether the task's lease expired or was disowned.
func (w *Worker) leaseLapsed(t *shardTask) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return t.disowned || time.Now().After(t.lease)
}

// watchLease cancels a compute when its lease — which re-probes
// and lease heartbeats keep pushing forward — finally lapses, so an
// orphaned shard parks its prefix instead of burning CPU forever for a
// coordinator that may never return.
func (w *Worker) watchLease(t *shardTask) {
	for {
		w.mu.Lock()
		d := time.Until(t.lease)
		w.mu.Unlock()
		if d <= 0 {
			w.metLeaseExpired.Inc()
			w.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "cluster_shard_lease_expired")
			t.cancel()
			return
		}
		select {
		case <-time.After(d):
		case <-t.done:
			return
		}
	}
}

// handleLeases applies a coordinator lease heartbeat: every in-flight
// compute whose plan fingerprint is listed gets its lease extended, and
// every unlisted one is disowned — cancelled now, its prefix parked by
// the compute path.  Retention is never purged here (see Worker.retain
// for why).
func (w *Worker) handleLeases(rw http.ResponseWriter, r *http.Request) {
	var body leaseBody
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		writeClusterJSON(rw, http.StatusBadRequest, errorBody{Error: "bad lease body: " + err.Error()})
		return
	}
	listed := make(map[uint64]bool, len(body.Fingerprints))
	for _, fp := range body.Fingerprints {
		listed[fp] = true
	}
	until := time.Now().Add(time.Duration(body.LeaseMS) * time.Millisecond)
	var renewed, disowned int64
	w.mu.Lock()
	for _, t := range w.tasks {
		switch {
		case listed[t.fp]:
			if until.After(t.lease) {
				t.lease = until
				renewed++
			}
		case !t.disowned:
			t.disowned = true
			t.cancel()
			disowned++
		}
	}
	w.mu.Unlock()
	w.metLeaseRenewed.Add(renewed)
	if disowned > 0 {
		w.metLeaseDisowned.Add(disowned)
		w.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "cluster_shards_disowned",
			slog.Int64("count", disowned))
	}
	writeClusterJSON(rw, http.StatusOK, map[string]any{"ok": true})
}

// Join registers the worker with a coordinator and heartbeats every
// joinInterval until Drain (or ctx cancellation); advertise is this
// daemon's base URL as the coordinator should dial it.  Registration
// failures are retried on the heartbeat interval — a worker that boots
// before its coordinator joins as soon as the coordinator is up.
func (w *Worker) Join(ctx context.Context, coordinator, advertise string) {
	w.mu.Lock()
	w.coordinator = coordinator
	w.mu.Unlock()
	hctx, cancel := context.WithCancel(ctx)
	w.hb.Lock()
	w.hb.stop = cancel
	done := make(chan struct{})
	w.hb.done = done
	w.hb.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(joinInterval)
		defer t.Stop()
		for {
			w.register(hctx, coordinator, advertise)
			select {
			case <-hctx.Done():
				return
			case <-t.C:
			}
		}
	}()
}

func (w *Worker) register(ctx context.Context, coordinator, advertise string) {
	body, _ := json.Marshal(joinBody{Addr: advertise})
	rctx, cancel := context.WithTimeout(ctx, joinTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, "POST", coordinator+WorkersPath, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		if errors.Is(rctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			w.metJoinTime.Inc()
		}
		w.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "cluster_join_failed",
			slog.String("coordinator", coordinator), slog.String("error", err.Error()))
		return
	}
	resp.Body.Close()
}

func (w *Worker) stopHeartbeat() {
	w.hb.Lock()
	stop, done := w.hb.stop, w.hb.done
	w.hb.stop, w.hb.done = nil, nil
	w.hb.Unlock()
	if stop != nil {
		stop()
		<-done
	}
}

// Deregister removes the worker from the coordinator's membership — the
// drain path's final courtesy, so the coordinator stops dispatching to
// a departing node immediately instead of after the heartbeat TTL.
func (w *Worker) Deregister(coordinator, advertise string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "DELETE", coordinator+WorkersPath+"?addr="+url.QueryEscape(advertise), nil)
	if err != nil {
		return
	}
	if resp, err := w.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

func writeClusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
