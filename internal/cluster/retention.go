package cluster

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sprint/internal/durable"
)

// This file is the worker side of coordinator-crash tolerance: a
// bounded, optionally disk-backed cache of shard results keyed by
// (plan fingerprint, [lo, hi)).  A worker finishes — or parks, when its
// lease lapses — every leased shard into retention, so a coordinator
// that restarts and re-probes the same window gets the bytes back
// without recomputation: a complete entry is re-delivered as-is, a
// partial entry seeds the recompute as a resume prefix.
//
// Retention is deliberately never purged by a disown: a restarted
// coordinator's authoritative lease set cannot include jobs its ledger
// replay has not re-admitted yet, and the parked results are exactly
// what that replay will come back for.  Entries age out LRU instead.
//
// A disk entry is one durable record (durable.WriteRecord) whose
// payload is the full ShardResponse as JSON; the response's own CRC64
// stamp is verified again on load, so a corrupt file can never re-enter
// the merge path.

// retainKey identifies one retained shard result.
type retainKey struct {
	fp     uint64
	lo, hi int64
}

// retainEntry is one cached result; resp is immutable once stored.
type retainEntry struct {
	key  retainKey
	resp *ShardResponse
}

// retention is the LRU store.  Callers synchronize externally (the
// worker uses its own mutex); methods never block on the network.
type retention struct {
	dir   string // "" for memory-only
	max   int
	ll    *list.List // front = most recently used, values *retainEntry
	byKey map[retainKey]*list.Element
}

// newRetention builds the store and, when dir is set, loads every valid
// retained result from a previous life into memory (corrupt files are
// quarantined; valid ones stay as they are on disk).
func newRetention(dir string, max int) (*retention, error) {
	rt := &retention{dir: dir, max: max, ll: list.New(), byKey: make(map[retainKey]*list.Element)}
	if dir == "" {
		return rt, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: retention dir: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.shard"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		resp, err := readRetained(name)
		if errors.Is(err, durable.ErrCorrupt) {
			durable.Quarantine(name)
		}
		if err == nil {
			rt.insert(retainKey{resp.Fingerprint, resp.Lo, resp.Hi}, resp)
		}
	}
	return rt, nil
}

// readRetained reads and verifies one retained-result file.  A payload
// that is not a consistent, correctly stamped response is corrupt.
func readRetained(path string) (*ShardResponse, error) {
	payload, err := durable.ReadRecord(path, "retain.read")
	if err != nil {
		return nil, err
	}
	var resp ShardResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("%s: %w: %v", path, durable.ErrCorrupt, err)
	}
	// The response must be internally consistent and carry a verified
	// end-to-end stamp, exactly as if it had just been computed.
	if resp.Fingerprint == 0 || resp.Next <= resp.Lo || resp.Next > resp.Hi ||
		resp.B != resp.Next-resp.Lo || len(resp.Raw) != len(resp.Adj) ||
		resp.CRC64 == 0 || resp.CRC64 != resp.CRC() {
		return nil, fmt.Errorf("%s: %w: inconsistent or unstamped response", path, durable.ErrCorrupt)
	}
	return &resp, nil
}

// fileName is the on-disk name for a key.
func (rt *retention) fileName(k retainKey) string {
	return filepath.Join(rt.dir, fmt.Sprintf("%016x-%d-%d.shard", k.fp, k.lo, k.hi))
}

// get returns the retained result for k (nil on miss) and marks it
// most recently used.
func (rt *retention) get(k retainKey) *ShardResponse {
	el, ok := rt.byKey[k]
	if !ok {
		return nil
	}
	rt.ll.MoveToFront(el)
	return el.Value.(*retainEntry).resp
}

// put stores (or replaces) the result for k, on disk too when the store
// has a dir.  Disk errors degrade to memory-only retention: the entry
// still serves this life, it just will not survive the next one.
func (rt *retention) put(k retainKey, resp *ShardResponse) {
	if rt.max == 0 {
		return
	}
	if rt.dir != "" {
		if payload, err := json.Marshal(resp); err == nil {
			durable.WriteRecord(rt.fileName(k), payload, "retain.write")
		}
	}
	rt.insert(k, resp)
}

// insert stores (or replaces) the result for k in memory and evicts LRU
// entries past the bound, deleting their files.
func (rt *retention) insert(k retainKey, resp *ShardResponse) {
	if rt.max == 0 {
		return
	}
	if el, ok := rt.byKey[k]; ok {
		el.Value.(*retainEntry).resp = resp
		rt.ll.MoveToFront(el)
	} else {
		rt.byKey[k] = rt.ll.PushFront(&retainEntry{key: k, resp: resp})
	}
	for rt.max > 0 && rt.ll.Len() > rt.max {
		el := rt.ll.Back()
		e := el.Value.(*retainEntry)
		rt.ll.Remove(el)
		delete(rt.byKey, e.key)
		if rt.dir != "" {
			os.Remove(rt.fileName(e.key))
		}
	}
}

// size reports the number of retained results.
func (rt *retention) size() int {
	if rt == nil {
		return 0
	}
	return rt.ll.Len()
}
