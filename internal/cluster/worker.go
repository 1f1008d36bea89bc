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
	// its own lock; nothing holds mu across its disk I/O.  Only its LRU
	// bound evicts: parked results are exactly what a restarted
	// coordinator's ledger replay comes back for.
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
	}
	w.metCompute = reg.Histogram("cluster_worker_shard_compute_seconds", metrics.DefLatencyBuckets)
	reg.Help("cluster_worker_retained_hits_total", "Shard re-probes served whole from the retained-result cache, no recomputation.")
	reg.Help("cluster_worker_retained_resumes_total", "Shard computes resumed from a parked partial result.")
	reg.Help("cluster_worker_retained_results", "Shard results currently retained.")
	reg.Help("cluster_worker_inflight_joins_total", "Shard re-probes that attached to an identical in-flight compute.")
	w.metRetainedHits = reg.Counter("cluster_worker_retained_hits_total")
	w.metRetainedResumes = reg.Counter("cluster_worker_retained_resumes_total")
	w.metInflightJoins = reg.Counter("cluster_worker_inflight_joins_total")
	reg.GaugeFunc("cluster_worker_retained_results", func() float64 {
		return float64(w.retained())
	})
	return w
}

// Role implements Node.
func (w *Worker) Role() string { return "worker" }

// Routes implements Node: the shard compute endpoint.
func (w *Worker) Routes() []Route {
	return []Route{{Method: "POST", Pattern: ShardPath, Handler: w.handleShard}}
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

// shardTask is one in-flight shard compute.  It lives exactly as long
// as some request waits for it: waiters counts the original dispatch
// plus every re-probe of the same window that joined it (a restarted
// coordinator, a straggler re-dispatch), and the last one to leave
// cancels ctx, so the compute stops at its next window boundary and
// parks its prefix in retention.  A task with no waiters is parking and
// takes no new ones.  waiters is guarded by the worker mutex; ctx and
// cancel are set at registration and never change; out is published
// before done closes and immutable afterwards.
type shardTask struct {
	ctx     context.Context
	cancel  context.CancelFunc
	waiters int
	done    chan struct{}
	out     *shardOutcome
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
// the ShardRequest contract is refused; a re-probe of a window that is
// already computing joins it; a retained complete result is
// re-delivered without recomputation; and otherwise the window computes
// — resuming from a parked partial prefix when retention holds one —
// with the result parked in retention for the next re-probe.  The
// request waits for its window until it is answered or its requester
// goes away (see shardTask).
func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		writeOutcome(rw, w.refusal(http.StatusServiceUnavailable, reasonDraining, "worker draining"))
		return
	}
	var req ShardRequest
	body := io.LimitReader(r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeClusterJSON(rw, http.StatusBadRequest, errorBody{Error: "bad shard request: " + err.Error()})
		return
	}
	// net/http watches the connection, and cancels r.Context() when the
	// requester goes away, only once the body has been read to its end.
	io.Copy(io.Discard, body)
	if req.Options.Mode == core.ModeSequential {
		// A coordinator rewrites sequential jobs to exact shards before
		// dispatch; a sequential shard request means a version-skewed or
		// misbehaving coordinator.  Refuse loudly rather than let
		// core.RunShard's rejection read as a generic shard failure.
		writeClusterJSON(rw, http.StatusBadRequest, errorBody{Error: "sequential mode never dispatches to workers: shards compute exact counts, the coordinator applies the stopping rule to the merge"})
		return
	}
	if req.Fingerprint == 0 || req.TotalB <= 0 {
		writeClusterJSON(rw, http.StatusBadRequest, errorBody{Error: "bad shard request: fingerprint and total_b are required"})
		return
	}
	k := retainKey(&req)
	t, joined := w.attach(r.Context(), k)
	if t == nil {
		return // the requester left while a cancelled compute parked
	}
	stop := context.AfterFunc(r.Context(), func() { w.leave(t) })
	defer stop()
	if joined {
		w.metInflightJoins.Inc()
		select {
		case <-t.done:
			writeOutcome(rw, t.out)
		case <-r.Context().Done():
		}
		return
	}
	// Looked up only once the task is registered: a compute retains its
	// record before it deregisters, so a re-probe that finds no task
	// finds the record.
	rec := w.retain.Get(k)
	prev, _ := core.DecodeRecord(rec)
	var out *shardOutcome
	if prev != nil && prev.Next == prev.Hi {
		w.metRetainedHits.Inc()
		w.cfg.Logger.LogAttrs(t.ctx, slog.LevelInfo, "cluster_shard_retained_hit",
			slog.Int64("lo", req.Lo), slog.Int64("hi", req.Hi))
		out = &shardOutcome{status: http.StatusOK, rec: rec}
	} else {
		out = w.computeShard(t.ctx, &req, prev)
	}
	t.cancel()
	t.out = out
	w.mu.Lock()
	delete(w.tasks, k)
	w.mu.Unlock()
	close(t.done)
	writeOutcome(rw, out)
}

// attach makes the caller a requester of window k: it joins the task
// computing k when one is live, and otherwise registers a new task with
// the caller as its only requester.  A task that is still parking after
// its last requester left is waited out first, so the new task resumes
// from the parked record instead of racing it.  attach returns nil when
// ctx ends during that wait.
func (w *Worker) attach(ctx context.Context, k string) (t *shardTask, joined bool) {
	for {
		w.mu.Lock()
		t = w.tasks[k]
		switch {
		case t == nil:
			tctx, cancel := context.WithCancel(w.drainCtx)
			t = &shardTask{ctx: tctx, cancel: cancel, waiters: 1, done: make(chan struct{})}
			w.tasks[k] = t
			w.mu.Unlock()
			return t, false
		case t.waiters > 0:
			t.waiters++
			w.mu.Unlock()
			return t, true
		}
		w.mu.Unlock()
		select {
		case <-t.done:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// leave drops one requester of t; the last one out cancels the compute.
func (w *Worker) leave(t *shardTask) {
	w.mu.Lock()
	t.waiters--
	last := t.waiters == 0
	w.mu.Unlock()
	if last {
		t.cancel()
	}
}

// abandoned is the outcome of a compute cancelled before it produced
// anything, because drain or the departure of its last requester
// stopped it.
func (w *Worker) abandoned() *shardOutcome {
	if w.draining.Load() {
		return w.refusal(http.StatusServiceUnavailable, reasonDraining, "worker draining")
	}
	return &shardOutcome{status: http.StatusServiceUnavailable, body: errorBody{Error: "shard abandoned: no request waits for it"}}
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
func (w *Worker) computeShard(ctx context.Context, req *ShardRequest, prev *core.Checkpoint) *shardOutcome {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return w.abandoned()
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

	// A parked partial prefix of this exact window (its requesters left
	// or the worker drained in a previous probe) seeds the compute: only
	// the remainder is recomputed, and the counts stay bitwise identical.
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
		// Nothing useful computed.  A cancelled shard — drained, or left
		// by its last requester — is refused, so a coordinator still
		// waiting redispatches it whole; anything else is a plain error.
		if ctx.Err() != nil {
			return w.abandoned()
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
