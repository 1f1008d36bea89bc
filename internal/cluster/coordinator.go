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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprint/internal/core"
	"sprint/internal/durable"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/metrics"
)

// CoordinatorConfig configures the cluster coordinator.
type CoordinatorConfig struct {
	// Workers lists static worker base URLs ("http://host:port");
	// further workers may join dynamically via the membership API.
	Workers []string
	// Client performs shard RPCs and dataset pushes; nil uses
	// http.DefaultClient.
	Client *http.Client
	// ShardsPerWorker is how many shards the range is split into per
	// live worker — more than 1 keeps a fast worker busy while a slow
	// one finishes, at slightly more merge traffic.  Defaults to 2.
	ShardsPerWorker int
	// MinDistB declines jobs whose planned B, in labellings, is under
	// this bound (ErrNotDistributed → the manager runs them locally);
	// tiny jobs are not worth a round trip.  Defaults to 0: distribute
	// whenever a worker is live.
	MinDistB int64
	// StragglerAfter speculatively re-dispatches a shard in flight
	// longer than this once the queue is otherwise empty; the first
	// complete delivery wins (the merge ledger discards the loser).
	// Defaults to 5s.
	StragglerAfter time.Duration
	// HeartbeatTTL expires joined workers that stop heartbeating.
	// Defaults to 10s.
	HeartbeatTTL time.Duration
	// DownFor is how long a worker that failed a dispatch is skipped
	// before being tried again.  Defaults to 3s.
	DownFor time.Duration
	// WorkerNProcs is the rank count shard requests ask workers for
	// (0 = each worker's own default).
	WorkerNProcs int
	// Metrics receives the coordinator-side cluster series, which Info
	// reads back; nil gets a private registry.
	Metrics *metrics.Registry
	// Logger receives dispatch lifecycle logs; nil discards.
	Logger *slog.Logger
	// Clock overrides time.Now in tests.
	Clock func() time.Time
}

// The coordinator's fixed dispatch bounds: nothing configures them.
const (
	// maxAttempts bounds remote dispatch attempts per shard; beyond it
	// the shard is computed on the coordinator itself.
	maxAttempts = 3
	// dispatchTimeout bounds one shard RPC end to end, so a worker that
	// accepts a connection and then hangs (half-open TCP, wedged kernel)
	// surfaces as a retryable error instead of stalling the job forever.
	// It must comfortably exceed the slowest expected shard compute.
	dispatchTimeout = 15 * time.Minute
	// legacyLeaseMS is the lease_ms every shard request carries: this
	// release ignores it, and a worker of the previous release, which
	// refuses a request without one, then never stops a compute that
	// its dispatch still waits for.
	legacyLeaseMS = int64(dispatchTimeout / time.Millisecond)
	// pushTimeout bounds one dataset push.
	pushTimeout = 2 * time.Minute
)

// Membership timing: a joined worker heartbeats every joinInterval, and
// the coordinator expires it after defaultHeartbeatTTL without one
// (unless CoordinatorConfig.HeartbeatTTL says otherwise), so a worker
// may miss two heartbeats and stay live.
const (
	joinInterval        = 3 * time.Second
	defaultHeartbeatTTL = 10 * time.Second
)

// member is one worker as the coordinator tracks it.
type member struct {
	addr      string
	static    bool
	lastSeen  time.Time // joined workers: last heartbeat
	downUntil time.Time // dispatch-failure backoff
}

// Coordinator partitions jobs into shards, dispatches them to workers
// and merges the counts.  It implements jobs.Distributor (plugged into
// the manager) and Node (mounted on the HTTP mux).
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client

	mu      sync.Mutex
	members map[string]*member
	// active tracks running jobStates (guarded by mu) for offering
	// queued windows to workers that join mid-job.
	active map[*jobState]struct{}

	// inflight backs the cluster_shards_in_flight gauge; every other
	// count lives only in the registry handles below, which Info reads.
	inflight atomic.Int64

	metDispatched    *metrics.Counter
	metSeqStops      *metrics.Counter
	metRetries       map[string]*metrics.Counter
	metPushes        *metrics.Counter
	metJobsDist      *metrics.Counter
	metJobsDecl      *metrics.Counter
	metLocal         *metrics.Counter
	metRPC           *metrics.Histogram
	metTimeouts      map[string]*metrics.Counter // by call
	metShardCorrupt  *metrics.Counter
	metPushEcho      *metrics.Counter
	metLedgerRecords map[string]*metrics.Counter // by kind
	metLedgerJobs    *metrics.Counter
	metLedgerWindows *metrics.Counter
	metLedgerInvalid *metrics.Counter
}

// Retry reasons, used as the metric label and in logs.
const (
	retryError     = "error"
	retryPartial   = "partial"
	retryStraggler = "straggler"
	retryCorrupt   = "corrupt"
)

// NewCoordinator builds a coordinator over the static worker set.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.ShardsPerWorker < 1 {
		cfg.ShardsPerWorker = 2
	}
	if cfg.StragglerAfter <= 0 {
		cfg.StragglerAfter = 5 * time.Second
	}
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = defaultHeartbeatTTL
	}
	if cfg.DownFor <= 0 {
		cfg.DownFor = 3 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Coordinator{cfg: cfg, client: cfg.Client, members: make(map[string]*member), active: make(map[*jobState]struct{})}
	for _, addr := range cfg.Workers {
		addr = strings.TrimRight(addr, "/")
		if addr == "" {
			continue
		}
		c.members[addr] = &member{addr: addr, static: true}
	}
	reg := cfg.Metrics
	reg.Help("cluster_shards_dispatched_total", "Shard RPCs dispatched to workers.")
	reg.Help("cluster_shard_retries_total", "Shard re-dispatches, by reason (error, partial, straggler, corrupt).")
	reg.Help("cluster_dataset_pushes_total", "Datasets pushed to workers that answered 404 for a content address.")
	reg.Help("cluster_jobs_distributed_total", "Jobs run across the cluster.")
	reg.Help("cluster_jobs_declined_total", "Jobs declined back to the local path (no live workers or B under threshold).")
	reg.Help("cluster_local_shards_total", "Shards computed on the coordinator after worker loss or exhausted retries.")
	reg.Help("cluster_shard_rpc_seconds", "Wall time of one shard RPC, dispatch to decoded response.")
	reg.Help("cluster_workers_live", "Workers currently considered live.")
	reg.Help("cluster_shards_in_flight", "Shards currently dispatched and unresolved.")
	reg.Help("cluster_rpc_timeout_total", "Cluster RPCs that hit their deadline, by call.")
	reg.Help("integrity_shard_corrupt_total", "Shard deliveries rejected as corrupt (frame CRC, record version or length, content type) and re-dispatched.")
	reg.Help("integrity_push_digest_mismatch_total", "Dataset pushes whose echoed content id disagreed with the local digest.")
	reg.Help("cluster_seq_early_stops_total", "Sequential jobs whose merged counts satisfied the stopping rule before every shard finished.")
	c.metDispatched = reg.Counter("cluster_shards_dispatched_total")
	c.metSeqStops = reg.Counter("cluster_seq_early_stops_total")
	c.metRetries = map[string]*metrics.Counter{
		retryError:     reg.Counter("cluster_shard_retries_total", "reason", retryError),
		retryPartial:   reg.Counter("cluster_shard_retries_total", "reason", retryPartial),
		retryStraggler: reg.Counter("cluster_shard_retries_total", "reason", retryStraggler),
		retryCorrupt:   reg.Counter("cluster_shard_retries_total", "reason", retryCorrupt),
	}
	c.metTimeouts = map[string]*metrics.Counter{
		"shard": reg.Counter("cluster_rpc_timeout_total", "call", "shard"),
		"push":  reg.Counter("cluster_rpc_timeout_total", "call", "push"),
	}
	c.metShardCorrupt = reg.Counter("integrity_shard_corrupt_total")
	reg.Help("cluster_ledger_records_total", "Durable merge-ledger records journaled, by kind: plan (a shard partition) or shard (an accepted delivery).")
	reg.Help("cluster_ledger_jobs_replayed_total", "Jobs whose journaled merge ledger was adopted after a coordinator restart.")
	reg.Help("cluster_ledger_windows_replayed_total", "Shard deliveries re-merged from the journal on restart — windows that were NOT recomputed.")
	reg.Help("cluster_ledger_invalid_total", "Replayed merge ledgers discarded after failing validation (plan drift, span gaps).")
	c.metLedgerRecords = map[string]*metrics.Counter{
		"plan":  reg.Counter("cluster_ledger_records_total", "kind", "plan"),
		"shard": reg.Counter("cluster_ledger_records_total", "kind", "shard"),
	}
	c.metLedgerJobs = reg.Counter("cluster_ledger_jobs_replayed_total")
	c.metLedgerWindows = reg.Counter("cluster_ledger_windows_replayed_total")
	c.metLedgerInvalid = reg.Counter("cluster_ledger_invalid_total")
	c.metPushEcho = reg.Counter("integrity_push_digest_mismatch_total")
	c.metPushes = reg.Counter("cluster_dataset_pushes_total")
	c.metJobsDist = reg.Counter("cluster_jobs_distributed_total")
	c.metJobsDecl = reg.Counter("cluster_jobs_declined_total")
	c.metLocal = reg.Counter("cluster_local_shards_total")
	c.metRPC = reg.Histogram("cluster_shard_rpc_seconds", metrics.DefLatencyBuckets)
	reg.GaugeFunc("cluster_workers_live", func() float64 {
		_, live := c.memberInfos()
		return float64(live)
	})
	reg.GaugeFunc("cluster_shards_in_flight", func() float64 {
		return float64(c.inflight.Load())
	})
	return c
}

// Role implements Node.
func (c *Coordinator) Role() string { return "coordinator" }

// Routes implements Node: the worker membership API.
func (c *Coordinator) Routes() []Route {
	return []Route{
		{Method: "POST", Pattern: WorkersPath, Handler: c.handleJoin},
		{Method: "DELETE", Pattern: WorkersPath, Handler: c.handleLeave},
	}
}

// Info implements Node.
func (c *Coordinator) Info() Info {
	members, live := c.memberInfos()
	return Info{
		Role: "coordinator",
		Coordinator: &CoordinatorInfo{
			Workers:          members,
			WorkersLive:      live,
			ShardsInFlight:   int(c.inflight.Load()),
			ShardsDispatched: c.metDispatched.Value(),
			ShardRetries:     sumCounters(c.metRetries),
			DatasetPushes:    c.metPushes.Value(),
			JobsDistributed:  c.metJobsDist.Value(),
			JobsDeclined:     c.metJobsDecl.Value(),
			LocalShards:      c.metLocal.Value(),
			SeqEarlyStops:    c.metSeqStops.Value(),

			LedgerRecords:         sumCounters(c.metLedgerRecords),
			LedgerJobsReplayed:    c.metLedgerJobs.Value(),
			LedgerWindowsReplayed: c.metLedgerWindows.Value(),
			LedgerInvalid:         c.metLedgerInvalid.Value(),
		},
	}
}

// memberInfos snapshots the membership and counts its live workers: the
// one definition behind Info's workers_live and the cluster_workers_live
// gauge.
func (c *Coordinator) memberInfos() ([]MemberInfo, int) {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	members := make([]MemberInfo, 0, len(c.members))
	live := 0
	for _, m := range c.members {
		alive := c.memberLive(m, now)
		if alive {
			live++
		}
		mi := MemberInfo{Addr: m.addr, Live: alive, Static: m.static}
		if !m.static {
			mi.LastSeen = m.lastSeen
		}
		members = append(members, mi)
	}
	return members, live
}

// sumCounters totals a labelled counter family.
func sumCounters(family map[string]*metrics.Counter) int64 {
	var n int64
	for _, c := range family {
		n += c.Value()
	}
	return n
}

// handleJoin registers (or re-heartbeats) a worker.  A re-registering
// worker clears its failure backoff: it just proved it is alive.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var body joinBody
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&body); err != nil {
		writeClusterJSON(w, http.StatusBadRequest, errorBody{Error: "bad join request: " + err.Error()})
		return
	}
	addr := strings.TrimRight(body.Addr, "/")
	if u, err := url.Parse(addr); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeClusterJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("join addr %q is not an http(s) base URL", body.Addr)})
		return
	}
	now := c.cfg.Clock()
	c.mu.Lock()
	m, ok := c.members[addr]
	if !ok {
		m = &member{addr: addr}
		c.members[addr] = m
	}
	m.lastSeen = now
	m.downUntil = time.Time{}
	c.mu.Unlock()
	if !ok {
		c.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "cluster_worker_joined", slog.String("addr", addr))
	}
	// A heartbeat is proof of life: put the worker on any job that still
	// has queued windows, right now — a worker re-joining mid-job used
	// to idle until another worker failed.
	c.offerActive(m)
	writeClusterJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleLeave deregisters a draining worker.  Static members are kept
// (they are configuration) but backed off, so dispatch stops
// immediately and resumes only if the worker comes back.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	addr := strings.TrimRight(r.URL.Query().Get("addr"), "/")
	now := c.cfg.Clock()
	c.mu.Lock()
	m, ok := c.members[addr]
	if ok {
		if m.static {
			m.downUntil = now.Add(c.cfg.DownFor)
		} else {
			delete(c.members, addr)
		}
	}
	c.mu.Unlock()
	if ok {
		c.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "cluster_worker_left", slog.String("addr", addr))
	}
	writeClusterJSON(w, http.StatusOK, map[string]any{"ok": ok})
}

// memberLive reports whether m is dispatchable at now.  Callers hold
// c.mu.
func (c *Coordinator) memberLive(m *member, now time.Time) bool {
	if now.Before(m.downUntil) {
		return false
	}
	if m.static {
		return true
	}
	return now.Sub(m.lastSeen) <= c.cfg.HeartbeatTTL
}

// live snapshots the dispatchable workers.
func (c *Coordinator) live(now time.Time) []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		if c.memberLive(m, now) {
			out = append(out, m)
		}
	}
	return out
}

// markDown backs a worker off after a failed dispatch.  A joined worker
// returns on its next heartbeat; a static one after DownFor.
func (c *Coordinator) markDown(m *member) {
	now := c.cfg.Clock()
	c.mu.Lock()
	m.downUntil = now.Add(c.cfg.DownFor)
	if !m.static {
		// Heartbeats clear the backoff; push lastSeen back so a worker
		// that truly died expires rather than lingering live-but-down.
		m.lastSeen = now.Add(-c.cfg.HeartbeatTTL)
	}
	c.mu.Unlock()
}

// registerActive tracks a running jobState for mid-job worker join
// offers.
func (c *Coordinator) registerActive(st *jobState) {
	c.mu.Lock()
	c.active[st] = struct{}{}
	c.mu.Unlock()
}

func (c *Coordinator) deregisterActive(st *jobState) {
	c.mu.Lock()
	delete(c.active, st)
	c.mu.Unlock()
}

// offerActive offers every active job's remaining queue to a worker
// that just proved liveness, so a worker that (re)joins mid-job is put
// to work immediately instead of waiting out the next failure retry.
func (c *Coordinator) offerActive(m *member) {
	c.mu.Lock()
	sts := make([]*jobState, 0, len(c.active))
	for st := range c.active {
		sts = append(sts, st)
	}
	c.mu.Unlock()
	for _, st := range sts {
		st.offer(m)
	}
}

// offer starts a dispatch loop for m unless the job is over or m
// already runs one.
func (st *jobState) offer(m *member) {
	st.mu.Lock()
	if st.finished || st.err != nil || st.earlyStop || st.loops[m.addr] {
		st.mu.Unlock()
		return
	}
	st.loops[m.addr] = true
	st.mu.Unlock()
	go st.remoteLoop(m)
}

// partitionRange splits [lo, hi) into at most n contiguous windows
// following the paper's Figure-2 rank partitioning: deterministic,
// equal spans up to remainder, in index order.
func partitionRange(lo, hi int64, n int) [][2]int64 {
	span := hi - lo
	if span <= 0 {
		return nil
	}
	if int64(n) > span {
		n = int(span)
	}
	if n < 1 {
		n = 1
	}
	out := make([][2]int64, 0, n)
	for r := 0; r < n; r++ {
		a := lo + span*int64(r)/int64(n)
		b := lo + span*int64(r+1)/int64(n)
		if a < b {
			out = append(out, [2]int64{a, b})
		}
	}
	return out
}

// RunJob implements jobs.Distributor: plan, partition, dispatch, merge,
// finalize.  The returned result is bitwise identical to a local run of
// the same spec — the merge ledger guarantees each permutation index is
// counted exactly once, and int64 count merging is order-independent.
//
// The dispatch state doubles as a DURABLE merge ledger when the jobs
// layer hands over a JobLedger: the shard plan and every accepted
// delivery are journaled, so a coordinator killed mid-job replays the
// ledger on restart, re-merges the journaled deliveries (zero
// recomputation) and dispatches only the windows that never landed.
func (c *Coordinator) RunJob(ctx context.Context, req jobs.DistRequest) (*core.Result, error) {
	// Sequential jobs distribute as EXACT shards: a shard never holds the
	// global step-down prefix, so per-row freezing cannot apply remotely.
	// The coordinator validates the plan under the original sequential
	// options (rejecting complete enumerations), rewrites the shard
	// options to exact, applies the whole-job stopping rule to its merge
	// ledger as deliveries land, and finalizes every row at the merged
	// count.  A resume checkpoint that froze rows under local per-row
	// stopping pins those rows: their counts and effective B stay at the
	// checkpoint values (masked out of every merge) while the active rows
	// keep accumulating — the distributed continuation of exactly what
	// the local engine would do.
	jobOpt := req.Opt
	jobPlan, err := core.PlanRun(req.Prepared, jobOpt)
	if err != nil {
		return nil, err
	}
	sequential := jobPlan.Sequential()
	plan := jobPlan
	if sequential {
		req.Opt.Mode = core.ModeExact
		req.Opt.SeqAlpha, req.Opt.SeqTolerance = 0, 0
		if plan, err = core.PlanRun(req.Prepared, req.Opt); err != nil {
			return nil, err
		}
	}

	// A valid prefix checkpoint is just a pre-merged shard covering
	// [0, Next): merge it and dispatch only the remainder.  The job's
	// own plan judges it — sequential jobs checkpoint under the
	// sequential fingerprint — and an invalid one (engine drift,
	// different analysis) is ignored, not fatal: the cluster recomputes
	// from scratch.
	merged, frozen, err := jobPlan.Resume(req.Resume, 0, plan.TotalB)
	if err != nil {
		merged, frozen = maxt.NewCounts(plan.Rows), nil
	}
	start := merged.B

	led := req.Ledger
	adopt := c.adoptLedger(led.Replayed(), plan, sequential, start, frozen)

	now := c.cfg.Clock()
	workers := c.live(now)
	// An adopted job is never declined: its journaled deliveries must be
	// honoured (the local path would recompute them), and the localLoop
	// covers the remainder even with zero live workers.
	if adopt == nil && (len(workers) == 0 || plan.Labellings(plan.TotalB) < c.cfg.MinDistB) {
		c.metJobsDecl.Inc()
		return nil, jobs.ErrNotDistributed
	}
	c.metJobsDist.Inc()

	seenObserved := start > 0
	var spans [][2]int64
	if adopt != nil {
		c.metLedgerJobs.Inc()
		for _, d := range adopt.deliveries {
			merged.MergeMasked(&maxt.Counts{Raw: d.Raw, Adj: d.Adj, B: d.Done}, frozen)
			if d.Next == d.Done {
				seenObserved = true
			}
		}
		c.metLedgerWindows.Add(int64(len(adopt.deliveries)))
		if req.OnProgress != nil && merged.B > 0 {
			req.OnProgress(plan.Labellings(merged.B), plan.Labellings(plan.TotalB))
		}
		spans = adopt.remaining
		c.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "cluster_ledger_adopted",
			slog.String("job", req.Key),
			slog.Int("deliveries", len(adopt.deliveries)),
			slog.Int("remaining", len(spans)),
			slog.Int64("merged_b", merged.B))
	} else if start < plan.TotalB {
		n := len(workers)
		if n < 1 {
			n = 1
		}
		spans = partitionRange(start, plan.TotalB, n*c.cfg.ShardsPerWorker)
		if led != nil {
			led.RecordPlan(&jobs.LedgerState{
				Fingerprint: plan.Fingerprint, TotalB: plan.TotalB,
				Complete: plan.Complete, Rows: plan.Rows,
				Start: start, Seq: sequential, BEff: frozen, Spans: spans,
			})
			c.metLedgerRecords["plan"].Inc()
		}
	}

	// An adopted sequential merge may already satisfy the stopping rule;
	// do not dispatch what the rule says we do not need.
	if seenObserved && len(spans) > 0 && core.SeqAllSettled(req.Prepared, jobPlan, merged, frozen) {
		spans = nil
		c.metSeqStops.Inc()
	}

	if len(spans) > 0 {
		if err := c.runShards(ctx, runShardsParams{
			req: req, plan: plan, jobPlan: jobPlan,
			seenObserved: seenObserved, frozen: frozen, led: led,
		}, merged, spans, workers); err != nil {
			return nil, err
		}
	}
	res, err := core.FinalizeCounts(req.Prepared, jobOpt, merged, frozen)
	if err != nil {
		return nil, err
	}
	res.NProcs = max(len(workers), 1)
	return res, nil
}

// adoption is the validated outcome of replaying a job's durable merge
// ledger: the journaled deliveries to re-merge and the windows still to
// dispatch (each original span advanced past its delivered prefix;
// fully-covered spans dropped).
type adoption struct {
	remaining  [][2]int64
	deliveries []*core.Checkpoint
}

// adoptLedger validates a replayed ledger against the freshly planned
// job.  The plan identity (fingerprint, range, rows, resume prefix,
// frozen rows) must match exactly and the journaled spans must tile
// [start, TotalB) contiguously — anything else means the job changed
// under the journal (engine upgrade, different checkpoint) and the
// whole ledger is discarded: the job re-partitions from the resume
// prefix alone and writes a fresh plan record.  Within a valid plan,
// deliveries are adopted per span as a contiguous chain from the span's
// lo, each counts record verified against the CRC its worker framed it
// with; a delivery that does not chain or fails its check drops together
// with the rest of its span's chain, and those windows simply recompute.
// Correctness never rides on the journal — it can only save work, not
// corrupt the merge.
func (c *Coordinator) adoptLedger(rep *jobs.LedgerState, plan core.Plan, sequential bool, start int64, frozen []int64) *adoption {
	if rep == nil {
		return nil
	}
	invalid := func(why string) *adoption {
		c.metLedgerInvalid.Inc()
		c.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "cluster_ledger_invalid",
			slog.String("why", why))
		return nil
	}
	if rep.Fingerprint != plan.Fingerprint || rep.TotalB != plan.TotalB ||
		rep.Complete != plan.Complete || rep.Rows != plan.Rows ||
		rep.Seq != sequential || rep.Start != start {
		return invalid("plan identity drift")
	}
	if len(rep.BEff) != len(frozen) {
		return invalid("frozen-row drift")
	}
	for i := range frozen {
		if rep.BEff[i] != frozen[i] {
			return invalid("frozen-row drift")
		}
	}
	if len(rep.Spans) == 0 {
		return invalid("no spans")
	}
	at := start
	for _, sp := range rep.Spans {
		if sp[0] != at || sp[1] <= sp[0] {
			return invalid("span layout")
		}
		at = sp[1]
	}
	if at != plan.TotalB {
		return invalid("span coverage")
	}
	lo := make([]int64, len(rep.Spans))
	for i, sp := range rep.Spans {
		lo[i] = sp[0]
	}
	var adopted []*core.Checkpoint
	// Deliveries were journaled in merge order, so one pass chains them.
	for _, del := range rep.Deliveries {
		d, err := core.DecodeRecord(del.Counts)
		if err != nil {
			c.metShardCorrupt.Inc()
			continue
		}
		dlo := d.Next - d.Done
		idx := -1
		for i, sp := range rep.Spans {
			if dlo >= sp[0] && d.Hi == sp[1] {
				idx = i
				break
			}
		}
		if idx < 0 || dlo != lo[idx] || d.Done == 0 ||
			d.Fingerprint != plan.Fingerprint || d.TotalB != plan.TotalB || len(d.Raw) != plan.Rows {
			continue
		}
		lo[idx] = d.Next
		adopted = append(adopted, d)
	}
	ad := &adoption{deliveries: adopted}
	for i, sp := range rep.Spans {
		if lo[i] < sp[1] {
			ad.remaining = append(ad.remaining, [2]int64{lo[i], sp[1]})
		}
	}
	return ad
}

// shardRec is the coordinator's ledger entry for one window of the
// range.  lo advances as deliveries merge; the exactly-once rule is
// that a delivery is accepted iff its range starts at the record's
// CURRENT lo — duplicates (double dispatch, straggler losers) and
// stale deliveries start below it and are discarded whole.
type shardRec struct {
	lo, hi       int64
	attempts     int  // failed dispatch attempts (bounds remote retries)
	inflight     int  // outstanding dispatches (straggler dups allowed)
	queued       bool // sitting in the dispatch queue
	local        bool // exhausted remote attempts: coordinator computes it
	spec         bool // speculatively re-dispatched once already
	done         bool
	dispatchedAt time.Time // earliest outstanding dispatch, for straggler detection
}

// jobState is the per-job dispatch state machine.
type jobState struct {
	c    *Coordinator
	ctx  context.Context
	req  jobs.DistRequest
	plan core.Plan

	// Sequential whole-job stopping: jobPlan is the job's own plan,
	// whose stopping rule (none for exact jobs) judges the merge,
	// seenObserved records that the merge covers permutation index 0 (the
	// observed labelling — the rule is meaningless before it lands), and
	// earlyStop is the coordinator's stop decision: dispatch loops drain,
	// in-flight shard RPCs are cancelled, and the merge finalizes as-is.
	jobPlan      core.Plan
	seenObserved bool
	earlyStop    bool

	// frozen pins rows a resumed sequential checkpoint already settled
	// (nil otherwise); led is the job's durable merge ledger (nil when
	// the manager has no journal).
	frozen []int64
	led    *jobs.JobLedger

	mu        sync.Mutex
	cond      *sync.Cond
	shards    []*shardRec
	queue     []*shardRec
	merged    *maxt.Counts
	remaining int
	loops     map[string]bool // worker addr -> has an active remote loop
	finished  bool
	err       error
}

// runShardsParams bundles the per-job constants of one dispatch run.
type runShardsParams struct {
	req          jobs.DistRequest
	plan         core.Plan
	jobPlan      core.Plan
	seenObserved bool // resume prefix already covers the observed labelling
	frozen       []int64
	led          *jobs.JobLedger
}

// runShards drives the dispatch loops until every span is merged — or,
// for sequential jobs, until the merged counts satisfy the whole-job
// stopping rule, whichever comes first.
func (c *Coordinator) runShards(ctx context.Context, p runShardsParams, merged *maxt.Counts, spans [][2]int64, workers []*member) error {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &jobState{
		c: c, ctx: jobCtx, req: p.req, plan: p.plan, merged: merged, remaining: len(spans),
		jobPlan: p.jobPlan, seenObserved: p.seenObserved,
		frozen: p.frozen, led: p.led, loops: make(map[string]bool),
	}
	st.cond = sync.NewCond(&st.mu)
	for _, sp := range spans {
		rec := &shardRec{lo: sp[0], hi: sp[1], queued: true}
		st.shards = append(st.shards, rec)
		st.queue = append(st.queue, rec)
	}
	// Every loop is on the books before the first one starts: a loop that
	// finishes at once deletes its entry under st.mu while this one would
	// still be writing the next.
	st.mu.Lock()
	for _, m := range workers {
		st.loops[m.addr] = true
	}
	st.mu.Unlock()
	for _, m := range workers {
		go st.remoteLoop(m)
	}
	go st.localLoop()
	c.registerActive(st)
	defer c.deregisterActive(st)
	stopAbort := context.AfterFunc(ctx, func() {
		st.abort(fmt.Errorf("cluster: job aborted: %w", context.Cause(ctx)))
	})
	defer stopAbort()
	stopTick := make(chan struct{})
	defer close(stopTick)
	go st.stragglerTicker(c.cfg.StragglerAfter, stopTick)

	st.mu.Lock()
	for st.remaining > 0 && st.err == nil && !st.earlyStop {
		st.cond.Wait()
	}
	st.finished = true
	err := st.err
	st.mu.Unlock()
	st.cond.Broadcast()
	// cancel() (deferred) aborts any straggling RPCs and the local
	// loop; their late deliveries are discarded by the finished flag.
	// For a sequential early stop, this cancellation IS the cluster-wide
	// stop broadcast: every in-flight shard RPC is torn down, and with it
	// the worker's compute, and no further spans dispatch.
	return err
}

// abort fails the job (context cancelled); loops drain out.
func (st *jobState) abort(err error) {
	st.mu.Lock()
	if st.err == nil && !st.finished {
		st.err = err
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// next blocks until a shard is available for this loop kind and claims
// one dispatch of it, or returns nil when the job is over.  The local
// loop only takes shards flagged local — or anything, once no remote
// loop survives; remote loops take everything else.
func (st *jobState) next(localLoop bool) *shardRec {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.finished || st.err != nil || st.remaining == 0 || st.earlyStop {
			return nil
		}
		if rec := st.takeLocked(localLoop); rec != nil {
			if rec.inflight == 0 {
				rec.dispatchedAt = st.c.cfg.Clock()
			}
			rec.inflight++
			st.c.inflight.Add(1)
			return rec
		}
		st.cond.Wait()
	}
}

// takeLocked scans the queue for the first shard this loop kind may
// dispatch, dropping finished records on the way.  Callers hold st.mu.
func (st *jobState) takeLocked(localLoop bool) *shardRec {
	kept := st.queue[:0]
	var take *shardRec
	for _, rec := range st.queue {
		if rec.done {
			rec.queued = false
			continue
		}
		eligible := !rec.local
		if localLoop {
			eligible = rec.local || len(st.loops) == 0
		}
		if take == nil && eligible {
			take = rec
			rec.queued = false
			continue
		}
		kept = append(kept, rec)
	}
	st.queue = kept
	return take
}

// release drops one outstanding dispatch without requeueing.
func (st *jobState) release(rec *shardRec) {
	st.mu.Lock()
	rec.inflight--
	st.c.inflight.Add(-1)
	st.mu.Unlock()
}

// requeue returns a failed dispatch to the queue, flipping the shard to
// coordinator-local once its remote attempts are exhausted.
func (st *jobState) requeue(rec *shardRec, reason string) {
	st.c.metRetries[reason].Inc()
	st.mu.Lock()
	rec.inflight--
	st.c.inflight.Add(-1)
	if !rec.done && st.err == nil && !st.finished {
		if reason == retryError {
			rec.attempts++
			if rec.attempts >= maxAttempts {
				rec.local = true
			}
		}
		if !rec.queued {
			rec.queued = true
			st.queue = append(st.queue, rec)
		}
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// deliver merges one shard delivery under the exactly-once rule and
// advances the ledger.  Counts covering [lo, next) are accepted iff lo
// equals the record's current lo and the fingerprint matches the plan;
// anything else — duplicate, stale range, drifted node — is discarded
// whole.  A partial delivery (next < hi) merges its prefix and requeues
// the remainder.  counts is ck's record as it arrived, journaled as it
// is (nil for the coordinator's own loop, which encodes it only to
// journal it); from names the delivering worker ("local" for that loop)
// for the ledger record.
func (st *jobState) deliver(rec *shardRec, ck *core.Checkpoint, counts []byte, from string) {
	rows := st.plan.Rows
	lo := ck.Next - ck.Done
	st.mu.Lock()
	rec.inflight--
	st.c.inflight.Add(-1)
	if rec.inflight == 0 {
		rec.dispatchedAt = time.Time{}
	} else {
		rec.dispatchedAt = st.c.cfg.Clock()
	}
	ok := !rec.done && st.err == nil && !st.finished &&
		ck.Fingerprint == st.plan.Fingerprint &&
		ck.TotalB == st.plan.TotalB &&
		lo == rec.lo && ck.Next > rec.lo && ck.Next <= rec.hi && ck.Hi == rec.hi &&
		len(ck.Raw) == rows && len(ck.Adj) == rows
	if ok {
		st.merged.MergeMasked(&maxt.Counts{Raw: ck.Raw, Adj: ck.Adj, B: ck.Done}, st.frozen)
		rec.lo = ck.Next
		if rec.lo == rec.hi {
			rec.done = true
			st.remaining--
		} else if !rec.queued {
			rec.queued = true
			st.queue = append(st.queue, rec)
		}
		if st.req.OnProgress != nil {
			st.req.OnProgress(st.plan.Labellings(st.merged.B), st.plan.Labellings(st.plan.TotalB))
		}
		// Whole-job stopping on the merge ledger.  The rule only makes
		// sense once the observed labelling (permutation index 0, always
		// the first span's first index) is merged — every count is
		// conditioned on the observed statistics being in the ledger.
		// Merged shards cover disjoint index ranges of one iid sampled
		// sequence, so any union is a valid sample.  A delivery that
		// lands after the stop but before runShards finishes still
		// merges; the stop itself is counted once.
		if lo == 0 {
			st.seenObserved = true
		}
		if st.seenObserved && st.remaining > 0 && !st.earlyStop &&
			core.SeqAllSettled(st.req.Prepared, st.jobPlan, st.merged, st.frozen) {
			st.earlyStop = true
			st.c.metSeqStops.Inc()
		}
	}
	partial := ok && !rec.done
	st.mu.Unlock()
	st.cond.Broadcast()
	if ok && st.led != nil {
		// Journal OUTSIDE the dispatch lock: the append fsyncs, and that
		// latency must not serialize the merge.  The crash window this
		// opens is safe — a merged-but-unjournaled delivery re-dispatches
		// after restart and worker retention re-serves it from cache.
		if counts == nil {
			counts = ck.AppendRecord(nil)
		}
		st.led.RecordDelivery(&jobs.LedgerDelivery{Worker: from, Counts: counts})
		st.c.metLedgerRecords["shard"].Inc()
	}
	if partial {
		st.c.metRetries[retryPartial].Inc()
	}
}

// remoteLoop pulls shards and dispatches them to one worker until the
// job finishes or the worker fails (it is then backed off and its
// queued work drains to the surviving loops).
func (st *jobState) remoteLoop(m *member) {
	defer func() {
		st.mu.Lock()
		delete(st.loops, m.addr)
		st.mu.Unlock()
		st.cond.Broadcast()
	}()
	pushed := false
	for {
		rec := st.next(false)
		if rec == nil {
			return
		}
		if !st.c.attempt(st, m, rec, &pushed) {
			return
		}
	}
}

// localLoop computes shards on the coordinator itself: the survivor of
// last resort.  It idles while remote loops are healthy and only picks
// up shards that exhausted their remote retries — or everything, once
// no remote loop remains.
func (st *jobState) localLoop() {
	scratch := &core.RunScratch{}
	for {
		rec := st.next(true)
		if rec == nil {
			return
		}
		st.mu.Lock()
		lo, hi, done := rec.lo, rec.hi, rec.done
		st.mu.Unlock()
		if done {
			st.release(rec)
			continue
		}
		sc, err := core.RunShard(st.req.Prepared, st.req.Opt, lo, hi, core.RunControl{
			Ctx:     st.ctx,
			NProcs:  st.req.NProcs,
			Every:   st.req.Every,
			Scratch: scratch,
		})
		if err != nil {
			st.release(rec)
			st.abort(err)
			return
		}
		st.c.metLocal.Inc()
		st.deliver(rec, sc.Checkpoint(), nil, "local")
	}
}

// stragglerTicker watches for a drained queue with long-inflight shards
// and speculatively re-dispatches each at most once; the merge ledger
// makes the duplicate harmless.
func (st *jobState) stragglerTicker(after time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(after / 4)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := st.c.cfg.Clock()
		bumped := false
		st.mu.Lock()
		if len(st.queue) == 0 && st.remaining > 0 && st.err == nil && !st.finished {
			for _, rec := range st.shards {
				if rec.done || rec.queued || rec.spec || rec.inflight == 0 {
					continue
				}
				if now.Sub(rec.dispatchedAt) >= after {
					rec.spec, rec.queued = true, true
					st.queue = append(st.queue, rec)
					bumped = true
					st.c.metRetries[retryStraggler].Inc()
				}
			}
		}
		st.mu.Unlock()
		if bumped {
			st.cond.Broadcast()
		}
	}
}

// attempt dispatches one claimed shard to one worker.  It returns false
// when the worker should be abandoned for this job (transport failure,
// refusal) — the shard is already requeued for the survivors.
func (c *Coordinator) attempt(st *jobState, m *member, rec *shardRec, pushed *bool) bool {
	st.mu.Lock()
	lo, hi, done := rec.lo, rec.hi, rec.done
	st.mu.Unlock()
	if done {
		st.release(rec)
		return true
	}
	sreq := ShardRequest{
		JobKey:      st.req.Key,
		DatasetID:   st.req.DatasetID,
		Labels:      st.req.Labels,
		Options:     st.req.Opt,
		Lo:          lo,
		Hi:          hi,
		TotalB:      st.plan.TotalB,
		Fingerprint: st.plan.Fingerprint,
		NProcs:      c.cfg.WorkerNProcs,
		LeaseMS:     legacyLeaseMS,
	}
	for {
		c.metDispatched.Inc()
		rpcStart := time.Now()
		ck, counts, status, reason, err := c.postShard(st.ctx, m.addr, &sreq, st.plan.Rows)
		c.metRPC.ObserveDuration(time.Since(rpcStart))
		switch {
		case errors.Is(err, durable.ErrCorrupt):
			// Corruption is detected HERE, not in deliver(): deliver
			// silently discards a bad body without requeueing (that is
			// its duplicate-suppression contract), which would leave the
			// shard waiting on a straggler tick that never comes.  A
			// rejected delivery re-dispatches immediately instead.  A
			// worker of another record version fails here too.
			c.cfg.Logger.LogAttrs(st.ctx, slog.LevelWarn, "cluster_shard_corrupt",
				slog.String("worker", m.addr), slog.Int64("lo", lo), slog.Int64("hi", hi),
				slog.String("error", err.Error()))
			c.metShardCorrupt.Inc()
			c.markDown(m)
			st.requeue(rec, retryCorrupt)
			return false
		case err != nil:
			c.cfg.Logger.LogAttrs(st.ctx, slog.LevelWarn, "cluster_shard_failed",
				slog.String("worker", m.addr), slog.Int64("lo", lo), slog.Int64("hi", hi),
				slog.String("error", err.Error()))
			c.markDown(m)
			st.requeue(rec, retryError)
			return false
		case status == http.StatusNotFound && reason == reasonUnknownDataset && !*pushed:
			// First 404 from this worker: push the .spb once, then
			// retry the same shard on it.  This is the only path that
			// ever moves matrix bytes.
			*pushed = true
			if perr := c.pushDataset(st.ctx, m.addr, st.req.DatasetID, st.req.Matrix); perr != nil {
				c.cfg.Logger.LogAttrs(st.ctx, slog.LevelWarn, "cluster_dataset_push_failed",
					slog.String("worker", m.addr), slog.String("error", perr.Error()))
				c.markDown(m)
				st.requeue(rec, retryError)
				return false
			}
			c.metPushes.Inc()
			continue
		case status == http.StatusOK:
			st.deliver(rec, ck, counts, m.addr)
			return true
		default:
			// Refused: draining (503), fingerprint drift (409), or a
			// deterministic 4xx.  This worker is no use for this job;
			// requeue for the survivors.
			c.cfg.Logger.LogAttrs(st.ctx, slog.LevelWarn, "cluster_shard_refused",
				slog.String("worker", m.addr), slog.Int("status", status), slog.String("reason", reason))
			c.markDown(m)
			st.requeue(rec, retryError)
			return false
		}
	}
}

// callCtx derives the per-RPC deadline context and pairs it with the
// timeout accounting: if the call dies of THIS deadline (not the job's
// own cancellation), the named cluster_rpc_timeout_total series ticks.
func (c *Coordinator) callCtx(ctx context.Context, call string, d time.Duration) (context.Context, context.CancelFunc, func(error)) {
	tctx, cancel := context.WithTimeout(ctx, d)
	note := func(err error) {
		if err != nil && errors.Is(tctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			if m, ok := c.metTimeouts[call]; ok {
				m.Inc()
			}
		}
	}
	return tctx, cancel, note
}

// postShard performs one shard RPC under dispatchTimeout and returns the
// decoded counts record with its bytes.  A non-200 answer is returned as
// (nil, nil, status, reason, nil); a body that is not one counts record
// over rows rows — wrong content type, longer than the record, failing
// its decode — as an error wrapping durable.ErrCorrupt; transport-level
// problems (including the deadline) as any other err.
func (c *Coordinator) postShard(ctx context.Context, addr string, sreq *ShardRequest, rows int) (*core.Checkpoint, []byte, int, string, error) {
	body, err := json.Marshal(sreq)
	if err != nil {
		return nil, nil, 0, "", err
	}
	ctx, cancel, noteTimeout := c.callCtx(ctx, "shard", dispatchTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "POST", addr+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		noteTimeout(err)
		return nil, nil, 0, "", err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(io.LimitReader(hresp.Body, 1<<16)).Decode(&eb)
		return nil, nil, hresp.StatusCode, eb.Reason, nil
	}
	if ct := hresp.Header.Get("Content-Type"); ct != countsContentType {
		return nil, nil, 0, "", fmt.Errorf("shard response: %w: content type %q, want %s", durable.ErrCorrupt, ct, countsContentType)
	}
	// Read at most one byte past the record the plan implies: a longer
	// body is corrupt whatever it claims, and is never buffered whole.
	size := core.RecordSize(rows)
	counts := make([]byte, size+1)
	n, err := io.ReadFull(hresp.Body, counts)
	switch {
	case err == nil:
		return nil, nil, 0, "", fmt.Errorf("shard response: %w: longer than the %d-byte record", durable.ErrCorrupt, size)
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		noteTimeout(err)
		return nil, nil, 0, "", fmt.Errorf("reading shard response: %w", err)
	}
	counts = counts[:n]
	ck, err := core.DecodeRecord(counts)
	if err != nil {
		return nil, nil, 0, "", fmt.Errorf("shard response: %w", err)
	}
	return ck, counts, http.StatusOK, "", nil
}

// pushDataset uploads the matrix to a worker's public dataset API as
// .spb bytes, under pushTimeout.  The worker recomputes the content
// address from the received bytes and echoes it in the response; the
// coordinator requires the echo to equal the id its shard requests will
// name (want) — a disagreement means the payload was damaged in flight
// or the nodes hash differently, and every shard sent there would 404
// or, worse, compute on the wrong matrix.
func (c *Coordinator) pushDataset(ctx context.Context, addr, want string, m matrix.Matrix) error {
	if m.IsEmpty() {
		return fmt.Errorf("no coordinator-resident matrix to push")
	}
	var buf bytes.Buffer
	if err := matrix.Encode(&buf, m, nil, nil, matrix.RowMajor); err != nil {
		return err
	}
	ctx, cancel, noteTimeout := c.callCtx(ctx, "push", pushTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "PUT", addr+datasetsPath, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", spbContentType)
	hresp, err := c.client.Do(hreq)
	if err != nil {
		noteTimeout(err)
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK && hresp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(io.LimitReader(hresp.Body, 1<<12))
		return fmt.Errorf("dataset push: %s: %s", hresp.Status, strings.TrimSpace(string(b)))
	}
	var echo struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 1<<16)).Decode(&echo); err != nil {
		noteTimeout(err)
		return fmt.Errorf("dataset push: decoding response: %w", err)
	}
	if echo.ID != want {
		c.metPushEcho.Inc()
		return fmt.Errorf("dataset push: worker registered %q, want %q", echo.ID, want)
	}
	return nil
}
