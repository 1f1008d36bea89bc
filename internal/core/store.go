package core

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sprint/internal/durable"
)

// Store is the one keyed store of counts records: the job manager's
// checkpoints (keyed by content key, "<key>.ckpt") and a worker's
// retained shard results (keyed by "<fp>-<lo>-<hi>", ".shard") both live
// in one.  It is a bounded LRU, mirrored to a directory when it has
// one, with a single policy:
//
//   - An entry is a record's bytes; a caller that needs its fields
//     decodes them.
//   - Opening scans the directory for names only, orders the keys by
//     mtime and enforces the bound on disk at once, so files of keys
//     nobody asks for again never outlive it across restarts.  A record
//     is read and verified with DecodeRecord on its first lookup.
//   - A bad file is quarantined (durable.Quarantine), reported to
//     OnCorrupt, and the ".prev" generation is tried next.
//   - Every Put rotates the current file to ".prev" first; eviction and
//     Drop remove every generation.
//   - The store's mutex guards memory only.  Disk I/O runs outside it,
//     under a per-key lock that also keeps a stale eviction from
//     deleting the file a later Put of the same key wrote.
//
// What a failed write means is the caller's business: Put still keeps
// the record in memory and returns the error.
type Store struct {
	dir, ext, site string
	max            int
	onCorrupt      func()

	mu      sync.Mutex
	lru     *list.List // of *storeEntry, front = most recently used
	entries map[string]*list.Element

	seed  maphash.Seed
	locks [16]sync.Mutex // striped per-key disk locks, taken before mu
}

// storeEntry is one key; rec is nil until a record on disk from an
// earlier life is first looked up.
type storeEntry struct {
	key string
	rec []byte
}

// StoreConfig configures OpenStore.
type StoreConfig struct {
	// Dir mirrors the store to disk; empty keeps it in memory only.
	Dir string
	// Ext is the file extension, ".ckpt" or ".shard".
	Ext string
	// Site prefixes the faultinject sites: Site+".write", Site+".read".
	Site string
	// Max bounds the number of keys, memory and disk alike.
	Max int
	// OnCorrupt, when non-nil, is called once per quarantined file.
	OnCorrupt func()
}

// OpenStore opens a store over cfg.Dir, creating it if needed.
func OpenStore(cfg StoreConfig) (*Store, error) {
	s := &Store{
		dir: cfg.Dir, ext: cfg.Ext, site: cfg.Site, max: cfg.Max, onCorrupt: cfg.OnCorrupt,
		lru: list.New(), entries: make(map[string]*list.Element), seed: maphash.MakeSeed(),
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: store dir: %w", err)
	}
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("core: store dir: %w", err)
	}
	// A key's age is its newest generation's mtime; a key whose only
	// file is ".prev" (a crash between rotation and write) counts too.
	newest := make(map[string]time.Time)
	for _, d := range names {
		key, ok := strings.CutSuffix(strings.TrimSuffix(d.Name(), ".prev"), s.ext)
		if !ok {
			continue
		}
		if fi, err := d.Info(); err == nil && fi.ModTime().After(newest[key]) {
			newest[key] = fi.ModTime()
		}
	}
	keys := make([]string, 0, len(newest))
	for k := range newest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return newest[keys[i]].After(newest[keys[j]]) })
	for _, k := range keys {
		s.entries[k] = s.lru.PushBack(&storeEntry{key: k})
	}
	for _, k := range s.evictLocked() {
		s.removeFiles(k)
	}
	return s, nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+s.ext) }

func (s *Store) keyLock(key string) *sync.Mutex {
	return &s.locks[maphash.String(s.seed, key)%uint64(len(s.locks))]
}

// Get returns key's record, or nil, and marks it most recently used.
func (s *Store) Get(key string) []byte {
	rec, ok := s.lookup(key)
	if !ok || rec != nil {
		return rec
	}
	kl := s.keyLock(key)
	kl.Lock()
	defer kl.Unlock()
	// Nothing can Put or remove key while its lock is held, but either
	// may have happened since lookup released mu.
	if rec, ok = s.lookup(key); !ok || rec != nil {
		return rec
	}
	rec = s.load(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok && rec != nil {
		el.Value.(*storeEntry).rec = rec
	} else if ok {
		// No readable generation: forget the key.
		s.lru.Remove(el)
		delete(s.entries, key)
	}
	return rec
}

// lookup returns key's in-memory record (nil if not read yet) and
// whether the store holds key, marking it most recently used.
func (s *Store) lookup(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*storeEntry).rec, true
}

// load reads key's newest valid generation, quarantining each bad one.
func (s *Store) load(key string) []byte {
	for _, p := range [...]string{s.path(key), s.path(key) + ".prev"} {
		rec, err := durable.ReadFile(p, s.site+".read")
		if err == nil {
			if _, err = DecodeRecord(rec); err == nil {
				return rec
			}
			durable.Quarantine(p)
			if s.onCorrupt != nil {
				s.onCorrupt()
			}
		}
	}
	return nil
}

// Put stores rec as key's record, most recently used, and evicts past
// the bound.  With a directory, the record is written atomically after
// the current file is rotated to ".prev"; a write error is returned
// with the record kept in memory.
func (s *Store) Put(key string, rec []byte) error {
	kl := s.keyLock(key)
	kl.Lock()
	var err error
	if s.dir != "" {
		p := s.path(key)
		if _, statErr := os.Stat(p); statErr == nil {
			// Not atomic with the write, but every state between is
			// safe: at worst ".prev" is one window staler than it could
			// have been.
			os.Rename(p, p+".prev")
		}
		err = durable.WriteFileAtomic(p, durable.Bytes(rec), s.site+".write")
	}
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*storeEntry).rec = rec
		s.lru.MoveToFront(el)
	} else {
		s.entries[key] = s.lru.PushFront(&storeEntry{key: key, rec: rec})
	}
	evicted := s.evictLocked()
	s.mu.Unlock()
	kl.Unlock()
	for _, k := range evicted {
		s.removeGone(k)
	}
	return err
}

// Drop removes key, memory and every file.
func (s *Store) Drop(key string) {
	kl := s.keyLock(key)
	kl.Lock()
	defer kl.Unlock()
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.Remove(el)
		delete(s.entries, key)
	}
	s.mu.Unlock()
	s.removeFiles(key)
}

// Len reports the number of keys held, read or not.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// evictLocked drops least recently used keys past the bound from memory
// and returns them; their files are the caller's to remove.
func (s *Store) evictLocked() []string {
	var evicted []string
	for s.lru.Len() > s.max {
		e := s.lru.Remove(s.lru.Back()).(*storeEntry)
		delete(s.entries, e.key)
		evicted = append(evicted, e.key)
	}
	return evicted
}

// removeGone removes an evicted key's files unless a Put brought the
// key back meanwhile.
func (s *Store) removeGone(key string) {
	kl := s.keyLock(key)
	kl.Lock()
	defer kl.Unlock()
	s.mu.Lock()
	_, back := s.entries[key]
	s.mu.Unlock()
	if !back {
		s.removeFiles(key)
	}
}

func (s *Store) removeFiles(key string) {
	if s.dir == "" {
		return
	}
	p := s.path(key)
	for _, suffix := range [...]string{"", ".prev", ".corrupt", ".prev.corrupt"} {
		os.Remove(p + suffix)
	}
}
