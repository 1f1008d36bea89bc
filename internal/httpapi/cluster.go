package httpapi

import (
	"net/http"

	"sprint/internal/cluster"
	"sprint/internal/jobs"
)

// This file mounts a cluster node (coordinator or worker) on the
// daemon's instrumented mux, extends /v1/stats with the node's role and
// membership, and makes /v1/readyz report a worker's drain.  The stats
// extension is strictly additive: every pre-cluster field keeps its
// name and meaning (pinned by TestStatsFieldNamesPinned), and a
// standalone daemon reports role "standalone" with no cluster object.

// AttachCluster mounts the node's internal API routes (shard compute,
// membership, ping) under the same request-id/logging/latency
// middleware as the public routes, and makes /v1/stats report the
// node's role and cluster state.  Call it after New and before serving.
func (s *Server) AttachCluster(n cluster.Node) {
	s.cluster = n
	for _, rt := range n.Routes() {
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, s.instrument(rt.Pattern, rt.Handler))
	}
}

// statsJSON is the /v1/stats document: the manager's counters plus the
// additive cluster fields.
type statsJSON struct {
	jobs.Stats
	// Role is "standalone", "coordinator" or "worker".
	Role string `json:"role"`
	// Cluster carries the node's membership and shard traffic; absent
	// on a standalone daemon.
	Cluster *cluster.Info `json:"cluster,omitempty"`
}

func (s *Server) statsDoc() statsJSON {
	doc := statsJSON{Stats: s.mgr.StatsSnapshot(), Role: "standalone"}
	if s.cluster != nil {
		info := s.cluster.Info()
		doc.Role = info.Role
		doc.Cluster = &info
	}
	return doc
}

// readiness reports whether the daemon should receive traffic, with a
// machine-readable reason when it should not.  Liveness and readiness
// are distinct signals: a recovering or draining daemon is perfectly
// alive (restarting it would only lose more work) but should not be
// handed new load until replay finishes or the drain completes.
func (s *Server) readiness() (bool, string) {
	if s.mgr.Recovering() {
		return false, "recovering"
	}
	if s.cluster != nil {
		if info := s.cluster.Info(); info.Worker != nil && info.Worker.Draining {
			return false, "draining"
		}
	}
	return true, ""
}

// handleLivez is the liveness probe: 200 whenever the process can run a
// handler.  Restart-worthy conditions only — recovery and drain are NOT
// liveness failures.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 while the manager replays
// its journal after a crash (or a cluster worker drains), 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.readiness()
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": reason, "ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "ready": true})
}
