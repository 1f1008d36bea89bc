package jobs

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sprint/internal/core"
	"sprint/internal/durable"
)

// ckptStore keeps the latest checkpoint per content key, in memory and —
// when dir is non-empty — mirrored to disk, so that resume survives not
// just a cancelled job but a crashed or restarted daemon.  Keys are hex
// digests, hence directly filesystem-safe.
//
// The store is bounded: beyond max entries the least recently updated
// checkpoint is discarded, memory and disk file both — abandoned analyses
// (cancelled and never resubmitted) must not accumulate count vectors
// forever.  Running jobs refresh their key every window, so eviction only
// ever reaches abandoned keys under normal operation.
//
// Locking: the map/list state (put, load, drop, len) is guarded by the
// owning Manager's mutex.  Disk writes are deliberately split out
// (writeDisk, removeDisk) so the manager can perform them WITHOUT holding
// its lock — a checkpoint encode can be megabytes, and API handlers must
// not queue behind it.
type ckptStore struct {
	dir     string
	max     int
	order   *list.List // front = most recently updated
	entries map[string]*list.Element
	// noteCorrupt, when non-nil, observes every quarantined checkpoint
	// file (integrity metric).  Called with the manager lock held.
	noteCorrupt func(key string)
}

type ckptEntry struct {
	key string
	ck  *core.Checkpoint
}

func newCkptStore(dir string, max int) (*ckptStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: checkpoint dir: %w", err)
		}
	}
	return &ckptStore{dir: dir, max: max, order: list.New(), entries: make(map[string]*list.Element)}, nil
}

func (s *ckptStore) path(key string) string {
	return filepath.Join(s.dir, key+".ckpt")
}

// put stores ck as the latest checkpoint for key and returns the keys
// evicted by the bound, whose disk files the caller should remove (outside
// its lock) via removeDisk.
func (s *ckptStore) put(key string, ck *core.Checkpoint) (evicted []string) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*ckptEntry).ck = ck
		s.order.MoveToFront(el)
	} else {
		s.entries[key] = s.order.PushFront(&ckptEntry{key: key, ck: ck})
	}
	for s.max > 0 && s.order.Len() > s.max {
		last := s.order.Back()
		s.order.Remove(last)
		k := last.Value.(*ckptEntry).key
		delete(s.entries, k)
		evicted = append(evicted, k)
	}
	return evicted
}

// writeDisk mirrors ck to disk (no-op without a dir) as one counts
// record, which lands via the temp-file + fsync + atomic-rename path, so
// a crash at any instruction leaves either the old checkpoint or the new
// one, never a torn body.
// The previous generation is rotated to "<key>.ckpt.prev" first: if the
// NEW file is later found corrupt (bit rot, injected fault), load falls
// back to the older prefix instead of restarting from zero.  Call
// without holding the manager lock.
func (s *ckptStore) writeDisk(key string, ck *core.Checkpoint) error {
	if s.dir == "" {
		return nil
	}
	p := s.path(key)
	if _, err := os.Stat(p); err == nil {
		// Rotation is not atomic with the write, but every intermediate
		// state is safe: worst case the .prev generation is one window
		// staler than it could have been.
		_ = os.Rename(p, p+".prev")
	}
	return durable.WriteFileAtomic(p, ck.AppendRecord(nil), "ckpt.write")
}

// removeDisk deletes key's checkpoint files (all generations), if any.
func (s *ckptStore) removeDisk(key string) {
	if s.dir != "" {
		p := s.path(key)
		os.Remove(p)
		os.Remove(p + ".prev")
		os.Remove(p + ".corrupt")
	}
}

// load returns the latest checkpoint for key, falling back to disk (e.g.
// after a daemon restart).  The integrity frame is verified on every
// disk read: a corrupt current generation is quarantined (renamed to
// "<key>.ckpt.corrupt", surfaced via noteCorrupt) and the ".prev"
// generation — the previous window's prefix — is tried next.  When
// every generation is missing or corrupt the checkpoint is simply
// absent: the job restarts from B=0, it never fails and never resumes
// from damaged counts.
func (s *ckptStore) load(key string) *core.Checkpoint {
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*ckptEntry).ck
	}
	if s.dir == "" {
		return nil
	}
	ck := s.loadGeneration(key, s.path(key))
	if ck == nil {
		ck = s.loadGeneration(key, s.path(key)+".prev")
	}
	if ck == nil {
		return nil
	}
	for _, k := range s.put(key, ck) {
		s.removeDisk(k)
	}
	return ck
}

// loadGeneration reads and verifies one checkpoint file, quarantining
// it on corruption — an older daemon's gob payload included: it passes
// the frame but not the record's version byte.
func (s *ckptStore) loadGeneration(key, path string) *core.Checkpoint {
	data, err := durable.ReadFile(path, "ckpt.read")
	var ck *core.Checkpoint
	if err == nil {
		ck, err = core.DecodeRecord(data)
	}
	if errors.Is(err, durable.ErrCorrupt) {
		_ = durable.Quarantine(path)
		if s.noteCorrupt != nil {
			s.noteCorrupt(key)
		}
	}
	return ck
}

// drop removes key's checkpoint, memory and disk (called when its result
// lands in the cache — the checkpoint has nothing left to resume).
func (s *ckptStore) drop(key string) {
	if el, ok := s.entries[key]; ok {
		s.order.Remove(el)
		delete(s.entries, key)
	}
	s.removeDisk(key)
}

// len reports the number of tracked checkpoints.
func (s *ckptStore) len() int { return s.order.Len() }
