package cluster

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sprint/internal/core"
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
// An entry is the counts record the worker sent, byte for byte; on disk
// it is written as it is and verified by core.DecodeRecord on load, so a
// corrupt file — or an older daemon's JSON — can never re-enter the
// merge path.

// retainKey identifies one retained shard result.
type retainKey struct {
	fp     uint64
	lo, hi int64
}

// retainEntry is one cached result: its counts record, immutable once
// stored, and whether the record covers its whole window.
type retainEntry struct {
	key      retainKey
	rec      []byte
	complete bool
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
		rec, err := durable.ReadFile(name, "retain.read")
		var ck *core.Checkpoint
		if err == nil {
			ck, err = core.DecodeRecord(rec)
		}
		if errors.Is(err, durable.ErrCorrupt) {
			durable.Quarantine(name)
		}
		if err == nil {
			rt.insert(retainKey{ck.Fingerprint, ck.Next - ck.Done, ck.Hi}, rec, ck.Next == ck.Hi)
		}
	}
	return rt, nil
}

// fileName is the on-disk name for a key.
func (rt *retention) fileName(k retainKey) string {
	return filepath.Join(rt.dir, fmt.Sprintf("%016x-%d-%d.shard", k.fp, k.lo, k.hi))
}

// get returns the retained record for k (nil on miss) and whether it
// covers the whole window, and marks it most recently used.
func (rt *retention) get(k retainKey) (rec []byte, complete bool) {
	el, ok := rt.byKey[k]
	if !ok {
		return nil, false
	}
	rt.ll.MoveToFront(el)
	e := el.Value.(*retainEntry)
	return e.rec, e.complete
}

// put stores (or replaces) the record for k, on disk too when the store
// has a dir.  Disk errors degrade to memory-only retention: the entry
// still serves this life, it just will not survive the next one.
func (rt *retention) put(k retainKey, rec []byte, complete bool) {
	if rt.dir != "" {
		durable.WriteFileAtomic(rt.fileName(k), rec, "retain.write")
	}
	rt.insert(k, rec, complete)
}

// insert stores (or replaces) the record for k in memory and evicts LRU
// entries past the bound, deleting their files.
func (rt *retention) insert(k retainKey, rec []byte, complete bool) {
	if el, ok := rt.byKey[k]; ok {
		e := el.Value.(*retainEntry)
		e.rec, e.complete = rec, complete
		rt.ll.MoveToFront(el)
	} else {
		rt.byKey[k] = rt.ll.PushFront(&retainEntry{key: k, rec: rec, complete: complete})
	}
	for rt.ll.Len() > rt.max {
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
