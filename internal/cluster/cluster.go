// Package cluster distributes the permutation space of pmaxT analyses
// across pmaxtd daemons: the service-level reproduction of the paper's
// MPI Step 4a/4b.  A coordinator partitions [0, B) into deterministic
// contiguous windows (the paper's Figure-2 rank chunks), fans the
// windows out to worker daemons over an internal HTTP shard API, and
// merges the per-shard max-T exceedance counts associatively, so the
// N-node result is bitwise identical to a 1-node run for every test,
// kernel and enumeration order.
//
// The design leans on three properties the engine already guarantees:
//
//   - Determinism of the slice: every permutation generator enumerates
//     one sequence fixed by (options, design), and any [lo, hi) slice
//     of it can be produced on any node (core.RunShard).  The plan
//     fingerprint — the same one checkpoints carry — is echoed through
//     every shard RPC, so two nodes can never merge counts from
//     different analyses or engine versions.
//   - Associative merge: exceedance counts are int64 sums over disjoint
//     index ranges; merging in any arrival order yields the same
//     vectors, provided each index is counted exactly once.  The
//     coordinator's shard ledger enforces exactly-once by construction
//     (duplicate and stale deliveries are discarded whole).
//   - Content-addressed data: no matrix bytes ride the shard path.
//     Workers resolve the dataset by its digest from their own registry
//     and share one preparation across all shards of all jobs on it;
//     only a worker that answers 404 gets the .spb pushed once.
//
// Failure model: a shard dispatch that errors is retried on another
// worker (bounded attempts); a worker that drains mid-shard returns a
// partial result — its counts over the completed window prefix, the
// same state a checkpoint would hold — which the coordinator merges
// before re-dispatching only the remainder; a straggling shard is
// speculatively re-dispatched and the first complete delivery wins.
// A worker computes a window only while some request waits for it; when
// the last one goes away the compute parks its prefix in retention,
// where a re-probe resumes it.
// When every worker is gone the coordinator computes the remaining
// shards itself, so a job admitted to the cluster always converges to
// the bit-exact result unless cancelled.
package cluster

import (
	"net/http"
	"time"

	"sprint/internal/core"
)

// Internal API paths.  The shard and membership routes live under
// /cluster/v1 on the same instrumented mux as the public API; dataset
// pushes reuse the public /v1/datasets PUT.
const (
	ShardPath   = "/cluster/v1/shards"
	WorkersPath = "/cluster/v1/workers"

	datasetsPath   = "/v1/datasets"
	spbContentType = "application/x-sprint-spb"
	// countsContentType marks a shard response body that is one counts
	// record (core.Checkpoint.AppendRecord).
	countsContentType = "application/x-sprint-counts"
)

// Route is one HTTP route a cluster node mounts on the daemon's mux.
type Route struct {
	Method  string
	Pattern string
	Handler http.HandlerFunc
}

// Node is the role-independent surface the HTTP layer mounts and
// reports: a Coordinator or a Worker.
type Node interface {
	// Role is "coordinator" or "worker".
	Role() string
	// Routes lists the node's internal API routes.
	Routes() []Route
	// Info snapshots the node's cluster state for /v1/stats and
	// /v1/readyz.
	Info() Info
}

// Info is a cluster-state snapshot, additive to the existing stats.
type Info struct {
	Role        string           `json:"role"`
	Coordinator *CoordinatorInfo `json:"coordinator,omitempty"`
	Worker      *WorkerNodeInfo  `json:"worker,omitempty"`
}

// CoordinatorInfo reports the coordinator's membership and shard
// traffic.
type CoordinatorInfo struct {
	Workers          []MemberInfo `json:"workers"`
	WorkersLive      int          `json:"workers_live"`
	ShardsInFlight   int          `json:"shards_in_flight"`
	ShardsDispatched int64        `json:"shards_dispatched"`
	ShardRetries     int64        `json:"shard_retries"`
	DatasetPushes    int64        `json:"dataset_pushes"`
	JobsDistributed  int64        `json:"jobs_distributed"`
	JobsDeclined     int64        `json:"jobs_declined"`
	LocalShards      int64        `json:"local_shards"`
	SeqEarlyStops    int64        `json:"seq_early_stops,omitempty"`
	// Durable-ledger traffic (omitted when idle).
	LedgerRecords         int64 `json:"ledger_records,omitempty"`
	LedgerJobsReplayed    int64 `json:"ledger_jobs_replayed,omitempty"`
	LedgerWindowsReplayed int64 `json:"ledger_windows_replayed,omitempty"`
	LedgerInvalid         int64 `json:"ledger_invalid,omitempty"`
}

// MemberInfo is one worker as the coordinator sees it.
type MemberInfo struct {
	Addr     string    `json:"addr"`
	Live     bool      `json:"live"`
	Static   bool      `json:"static"`
	LastSeen time.Time `json:"last_seen,omitzero"`
}

// WorkerNodeInfo reports a worker's shard service state.
type WorkerNodeInfo struct {
	Coordinator   string `json:"coordinator,omitempty"`
	Draining      bool   `json:"draining"`
	ShardsActive  int    `json:"shards_active"`
	ShardsServed  int64  `json:"shards_served"`
	ShardsPartial int64  `json:"shards_partial"`
	ShardsRefused int64  `json:"shards_refused"`
	// Result retention state (omitted when idle).
	ShardsRetained  int   `json:"shards_retained,omitempty"`
	RetainedHits    int64 `json:"retained_hits,omitempty"`
	RetainedResumes int64 `json:"retained_resumes,omitempty"`
	InflightJoins   int64 `json:"inflight_joins,omitempty"`
}

// ShardRequest asks a worker to compute exceedance counts over the
// global permutation index range [Lo, Hi) of one analysis.  The dataset
// travels by content address only; Options is the canonical option set
// and Fingerprint the coordinator's plan fingerprint, which the worker
// must reproduce bit-for-bit before computing (engine or option drift
// across nodes fails loudly instead of merging wrong counts).
//
// The contract: every request names its plan (Fingerprint != 0,
// TotalB > 0).  A request without either answers 400, as an undecodable
// body does, before the worker looks up the dataset.  The worker
// computes the window for as long as some request waits for it: when
// the last one goes away, the compute stops at its next window boundary
// and parks its prefix in retention for the next probe.
//
// The worker answers 200 with one counts record (countsContentType)
// covering [Lo, Next) of the window; Next < Hi is a drained worker's
// prefix hand-off, whose remainder the coordinator re-dispatches.  The
// record's frame CRC is the end-to-end check: a bit flipped anywhere
// between the worker's kernel and the coordinator's merge rejects the
// delivery whole and re-dispatches the shard.
type ShardRequest struct {
	// JobKey names the coordinator's job in the worker's shard log.
	JobKey      string       `json:"job_key"`
	DatasetID   string       `json:"dataset_id"`
	Labels      []int        `json:"labels"`
	Options     core.Options `json:"options"`
	Lo          int64        `json:"lo"`
	Hi          int64        `json:"hi"`
	TotalB      int64        `json:"total_b"`
	Fingerprint uint64       `json:"fingerprint"`
	// NProcs caps the worker-side rank count for this shard; 0 uses the
	// worker's default.
	NProcs int `json:"nprocs,omitempty"`
	// LeaseMS is ignored.  The coordinator still sends one constant, as
	// long as its dispatch timeout, because a worker of the previous
	// release answers 400 to a request without it and would stop a
	// compute that outlived it.
	LeaseMS int64 `json:"lease_ms,omitempty"`
}

// errorBody is the JSON error payload of the internal API, with a
// machine-readable reason the coordinator switches on.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Machine-readable error reasons.
const (
	reasonUnknownDataset = "unknown_dataset"
	reasonDraining       = "draining"
	reasonFingerprint    = "fingerprint_mismatch"
)

// joinBody is the worker registration payload.
type joinBody struct {
	Addr string `json:"addr"`
}
