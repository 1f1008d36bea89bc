package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sprint/internal/core"
	"sprint/internal/maxt"
)

// TestPartitionRange pins the Figure-2 partitioning: deterministic,
// contiguous, covering [lo, hi) exactly once, in index order.
func TestPartitionRange(t *testing.T) {
	cases := []struct {
		lo, hi int64
		n      int
	}{
		{0, 1000, 4}, {0, 7, 3}, {100, 103, 8}, {0, 1, 1},
		{5, 5, 4}, {0, 924, 5}, {3, 1000003, 16},
	}
	for _, tc := range cases {
		spans := partitionRange(tc.lo, tc.hi, tc.n)
		if tc.hi <= tc.lo {
			if spans != nil {
				t.Errorf("partitionRange(%d,%d,%d) = %v, want nil", tc.lo, tc.hi, tc.n, spans)
			}
			continue
		}
		next := tc.lo
		for _, sp := range spans {
			if sp[0] != next || sp[1] <= sp[0] {
				t.Fatalf("partitionRange(%d,%d,%d): span %v breaks contiguity at %d",
					tc.lo, tc.hi, tc.n, sp, next)
			}
			next = sp[1]
		}
		if next != tc.hi {
			t.Fatalf("partitionRange(%d,%d,%d): covers to %d", tc.lo, tc.hi, tc.n, next)
		}
		if len(spans) > tc.n {
			t.Fatalf("partitionRange(%d,%d,%d): %d spans", tc.lo, tc.hi, tc.n, len(spans))
		}
		// Deterministic: an identical call yields identical spans.
		again := partitionRange(tc.lo, tc.hi, tc.n)
		for i := range spans {
			if spans[i] != again[i] {
				t.Fatalf("partitionRange(%d,%d,%d) is not deterministic", tc.lo, tc.hi, tc.n)
			}
		}
	}
}

// newLedgerState builds a minimal jobState around one shard record for
// white-box delivery tests.
func newLedgerState(rows int, lo, hi int64) (*jobState, *shardRec) {
	c := NewCoordinator(CoordinatorConfig{})
	st := &jobState{
		c:      c,
		plan:   core.Plan{TotalB: hi, Rows: rows, Fingerprint: 0xfeed},
		merged: maxt.NewCounts(rows),

		remaining: 1,
	}
	st.cond = sync.NewCond(&st.mu)
	rec := &shardRec{lo: lo, hi: hi}
	st.shards = []*shardRec{rec}
	return st, rec
}

func resp(lo, next, hi int64, fp uint64, rows int, fill int64) *core.Checkpoint {
	raw := make([]int64, rows)
	adj := make([]int64, rows)
	for i := range raw {
		raw[i], adj[i] = fill, fill
	}
	return &core.Checkpoint{Next: next, Hi: hi, TotalB: hi, Fingerprint: fp,
		Done: next - lo, Raw: raw, Adj: adj}
}

// TestLedgerExactlyOnce is the double-dispatch idempotency property: of
// two identical deliveries for one shard (speculative re-dispatch, a
// retried RPC whose first answer arrived late) exactly one merges; the
// duplicate is discarded whole.
func TestLedgerExactlyOnce(t *testing.T) {
	const rows = 3
	st, rec := newLedgerState(rows, 0, 100)
	rec.inflight = 2
	st.c.inflight.Add(2)

	first := resp(0, 100, 100, 0xfeed, rows, 7)
	st.deliver(rec, first, nil, "w")
	if st.merged.B != 100 || st.merged.Raw[0] != 7 {
		t.Fatalf("first delivery not merged: B=%d raw=%v", st.merged.B, st.merged.Raw)
	}
	if !rec.done || st.remaining != 0 {
		t.Fatalf("shard not closed: done=%v remaining=%d", rec.done, st.remaining)
	}

	// The duplicate (same window, same counts) must change nothing.
	st.deliver(rec, resp(0, 100, 100, 0xfeed, rows, 7), nil, "w")
	if st.merged.B != 100 || st.merged.Raw[0] != 7 || st.merged.Adj[0] != 7 {
		t.Fatalf("duplicate delivery double-counted: B=%d raw=%v", st.merged.B, st.merged.Raw)
	}
}

// TestLedgerRejectsDrift pins the discard conditions: wrong fingerprint,
// wrong window start, wrong row count, inconsistent B.
func TestLedgerRejectsDrift(t *testing.T) {
	const rows = 2
	bad := []*core.Checkpoint{
		resp(0, 100, 100, 0xbad, rows, 1),   // fingerprint drift
		resp(10, 100, 100, 0xfeed, rows, 1), // does not start at rec.lo
		resp(0, 0, 100, 0xfeed, rows, 1),    // empty window
		resp(0, 101, 100, 0xfeed, rows, 1),  // beyond hi
		resp(0, 100, 100, 0xfeed, 5, 1),     // wrong row count
	}
	inconsistent := resp(0, 100, 100, 0xfeed, rows, 1)
	inconsistent.Done = 42 // counts over [58, 100), not from rec.lo
	bad = append(bad, inconsistent)
	for i, r := range bad {
		st, rec := newLedgerState(rows, 0, 100)
		rec.inflight = 1
		st.c.inflight.Add(1)
		st.deliver(rec, r, nil, "w")
		if st.merged.B != 0 || rec.done || st.remaining != 1 {
			t.Errorf("bad delivery %d accepted: B=%d done=%v", i, st.merged.B, rec.done)
		}
	}
}

// TestLedgerPartialAdvances pins the drain hand-off: a partial delivery
// merges its prefix, advances the record's lo, and requeues the
// remainder for re-dispatch.
func TestLedgerPartialAdvances(t *testing.T) {
	const rows = 2
	st, rec := newLedgerState(rows, 0, 100)
	rec.inflight = 1
	st.c.inflight.Add(1)
	st.deliver(rec, resp(0, 40, 100, 0xfeed, rows, 3), nil, "w")
	if st.merged.B != 40 || rec.lo != 40 || rec.done || !rec.queued {
		t.Fatalf("partial not advanced: B=%d lo=%d done=%v queued=%v",
			st.merged.B, rec.lo, rec.done, rec.queued)
	}
	// A late duplicate of the ORIGINAL full window no longer starts at
	// the advanced lo and is discarded.
	rec.inflight = 1
	st.c.inflight.Add(1)
	st.deliver(rec, resp(0, 100, 100, 0xfeed, rows, 3), nil, "w")
	if st.merged.B != 40 {
		t.Fatalf("stale full-window delivery merged over partial: B=%d", st.merged.B)
	}
	// The remainder completes the shard.
	rec.inflight = 1
	st.c.inflight.Add(1)
	st.deliver(rec, resp(40, 100, 100, 0xfeed, rows, 5), nil, "w")
	if st.merged.B != 100 || !rec.done || st.remaining != 0 {
		t.Fatalf("remainder not merged: B=%d done=%v", st.merged.B, rec.done)
	}
	if st.merged.Raw[0] != 8 { // 3 + 5
		t.Fatalf("prefix+remainder Raw = %d, want 8", st.merged.Raw[0])
	}
}

// TestMembership covers join, heartbeat TTL expiry and leave through the
// coordinator's HTTP routes, with a fake clock.
func TestMembership(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := NewCoordinator(CoordinatorConfig{
		Workers:      []string{"http://static:1"},
		HeartbeatTTL: 5 * time.Second,
		DownFor:      2 * time.Second,
		Clock:        clock,
	})
	mux := http.NewServeMux()
	for _, rt := range c.Routes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.Handler)
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()

	join := func(addr string, wantCode int) {
		t.Helper()
		body, _ := json.Marshal(joinBody{Addr: addr})
		r, err := http.Post(ts.URL+WorkersPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != wantCode {
			t.Fatalf("join %q: status %d, want %d", addr, r.StatusCode, wantCode)
		}
	}

	if n := len(c.live(clock())); n != 1 {
		t.Fatalf("static members live = %d, want 1", n)
	}
	join("http://dyn:2", http.StatusOK)
	join("not a url", http.StatusBadRequest)
	if n := len(c.live(clock())); n != 2 {
		t.Fatalf("after join: live = %d, want 2", n)
	}

	// TTL expiry drops the joined worker but never the static one.
	advance(6 * time.Second)
	if n := len(c.live(clock())); n != 1 {
		t.Fatalf("after TTL: live = %d, want 1", n)
	}
	join("http://dyn:2", http.StatusOK) // heartbeat revives it
	if n := len(c.live(clock())); n != 2 {
		t.Fatalf("after re-join: live = %d, want 2", n)
	}

	// Leave deletes the joined worker immediately.
	req, _ := http.NewRequest("DELETE", ts.URL+WorkersPath+"?addr=http://dyn:2", nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if n := len(c.live(clock())); n != 1 {
		t.Fatalf("after leave: live = %d, want 1", n)
	}

	// A static member that leaves is backed off, then returns.
	req, _ = http.NewRequest("DELETE", ts.URL+WorkersPath+"?addr=http://static:1", nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if n := len(c.live(clock())); n != 0 {
		t.Fatalf("after static leave: live = %d, want 0", n)
	}
	advance(3 * time.Second)
	if n := len(c.live(clock())); n != 1 {
		t.Fatalf("static member did not return after backoff: live = %d", n)
	}

	info := c.Info()
	if info.Role != "coordinator" || info.Coordinator == nil {
		t.Fatalf("coordinator info: %+v", info)
	}
}
