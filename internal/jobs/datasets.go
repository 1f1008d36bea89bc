package jobs

import (
	"bufio"
	"bytes"
	"container/list"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprint/internal/core"
	"sprint/internal/durable"
	"sprint/internal/matrix"
)

// This file implements the dataset plane of the job server: a
// content-addressed registry of expression matrices, so that a thousand
// jobs over one dataset upload it once, hash it once, and share one
// preparation (NA scrub, rank transform, per-row moment precompute,
// observed statistics) instead of paying ingest and prep per submission.
//
//   - Datasets are addressed by DatasetDigest: same cells, same id,
//     however the bytes arrived (rows, flat column-major JSON, or the
//     binary spb codec).  Re-uploading an existing dataset is a no-op
//     that returns the same id.
//   - Entries are ref-counted: every queued or running job holds a
//     reference, and the LRU eviction (beyond DatasetCacheSize entries)
//     only ever removes entries with zero references — an in-flight job
//     can never lose its matrix.
//   - With DatasetDir configured, every entry is mirrored to disk as
//     "<id>.spb" alongside the checkpoints, so registered datasets
//     survive a daemon restart; a memory-evicted entry silently reloads
//     from the mirror on its next use.
//   - Each entry carries a small cache of core.Prepared values keyed by
//     (labels, prep-relevant options).  Workers build a preparation once
//     per key — concurrent first users are collapsed by a sync.Once —
//     and every later job on the same key skips scrub, ranking and
//     moment precompute entirely (observable via Stats.PrepBuilds /
//     Stats.PrepHits).
//   - An inline x/x_flat submission runs over a job-owned entry of the
//     same shape: its resolved cells under the digest inside its content
//     key, never listed or counted by the registry, dropped with the job.

// DatasetInfo is a public snapshot of one registry entry.
type DatasetInfo struct {
	// ID is the content address: the DatasetDigest of the matrix.
	ID string `json:"id"`
	// Genes and Samples give the matrix shape.
	Genes   int `json:"genes"`
	Samples int `json:"samples"`
	// Bytes is the in-memory payload size (8 bytes per cell).
	Bytes int64 `json:"bytes"`
	// Refs counts queued or running jobs currently pinning the entry.
	Refs int `json:"refs"`
	// Preps counts the cached preparations built over this dataset.
	Preps int `json:"preps"`
	// CreatedAt and LastUsedAt stamp registration and most recent use.
	CreatedAt  time.Time `json:"created_at"`
	LastUsedAt time.Time `json:"last_used_at"`
}

// dsEntry is the record of one dataset a job runs over.  A registry
// entry is listed (el non-nil while it is resident); a job-owned entry —
// an inline x/x_flat submission's resolved cells — never is: it is not
// in the index, the LRU or any listing, and it is dropped with its job.
// All fields except the prepSlot internals are guarded by the owning
// Manager's mutex.
type dsEntry struct {
	id string
	m  matrix.Matrix
	el *list.Element

	refs               int
	createdAt, lastUse time.Time

	// preps caches shared preparations by prepKey.  The slot pointers are
	// handed out under the manager lock; the expensive build happens
	// outside it, serialised per slot by sync.Once.
	preps map[string]*prepSlot
}

// newEntry builds an unlisted entry over x holding refs references;
// dsStore.insert lists it in the registry.
func newEntry(id string, x matrix.Matrix, refs int, now time.Time) *dsEntry {
	return &dsEntry{id: id, m: x, refs: refs, createdAt: now, lastUse: now, preps: make(map[string]*prepSlot)}
}

func (e *dsEntry) info() DatasetInfo {
	return DatasetInfo{
		ID:    e.id,
		Genes: e.m.Rows, Samples: e.m.Cols,
		Bytes:     int64(len(e.m.Data)) * 8,
		Refs:      e.refs,
		Preps:     len(e.preps),
		CreatedAt: e.createdAt, LastUsedAt: e.lastUse,
	}
}

// prepSlot is the build-once holder of one shared preparation.
type prepSlot struct {
	once     sync.Once
	prepared *core.Prepared
	err      error
	lastUse  time.Time   // guarded by the manager mutex, for prep eviction
	claimed  atomic.Bool // a job has taken the build as its own
}

// dsStore is the dataset registry.  Map/list state is guarded by the
// owning Manager's mutex; disk reads and writes happen outside it.
type dsStore struct {
	dir     string
	max     int // in-memory entry bound
	order   *list.List
	entries map[string]*dsEntry
	// noteEvict, when non-nil, observes LRU evictions (count of entries
	// removed).  It is called with the manager lock held.
	noteEvict func(n int)
	// noteCorrupt, when non-nil, observes quarantined disk mirrors
	// (integrity metric).  Called WITHOUT the manager lock.
	noteCorrupt func(id string)
}

func newDSStore(dir string, max int) (*dsStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: dataset dir: %w", err)
		}
	}
	return &dsStore{dir: dir, max: max, order: list.New(), entries: make(map[string]*dsEntry)}, nil
}

// validDatasetID guards the id before it becomes a file name: dataset ids
// are lowercase hex SHA-256 digests, nothing else reaches the filesystem.
func validDatasetID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *dsStore) path(id string) string {
	return filepath.Join(s.dir, id+".spb")
}

// touch marks e most recently used.  Callers hold the manager lock.
func (s *dsStore) touch(e *dsEntry, now time.Time) {
	e.lastUse = now
	if e.el != nil { // job-owned entries have no list element
		s.order.MoveToFront(e.el)
	}
}

// insert records a new entry and evicts beyond the bound.  Callers hold
// the manager lock.
func (s *dsStore) insert(e *dsEntry) {
	e.el = s.order.PushFront(e)
	s.entries[e.id] = e
	s.evict(e)
}

// evict removes least-recently-used entries with zero references until
// the store is within its bound.  Entries pinned by jobs are skipped —
// the store may transiently exceed max when every entry is in use — and
// so is keep (the entry being inserted): a registration must never evict
// itself just because everything older is pinned, or the client would
// hold a 201 for an id that immediately misses.  Disk mirrors are NOT
// removed: the mirror is the persistent tier an evicted entry reloads
// from.
func (s *dsStore) evict(keep *dsEntry) {
	evicted := 0
	for el := s.order.Back(); el != nil && s.order.Len() > s.max; {
		prev := el.Prev()
		if e := el.Value.(*dsEntry); e.refs == 0 && e != keep {
			s.order.Remove(el)
			delete(s.entries, e.id)
			evicted++
		}
		el = prev
	}
	if evicted > 0 && s.noteEvict != nil {
		s.noteEvict(evicted)
	}
}

// remove deletes an entry from memory.  Callers hold the manager lock.
func (s *dsStore) remove(e *dsEntry) {
	s.order.Remove(e.el)
	delete(s.entries, e.id)
}

// resident reports the in-memory registry: its entry count, their
// payload bytes and the job references pinning them.  Callers hold the
// manager lock.
func (s *dsStore) resident() (n int, bytes int64, pins int) {
	for _, e := range s.entries {
		bytes += int64(len(e.m.Data)) * 8
		pins += e.refs
	}
	return len(s.entries), bytes, pins
}

// writeDisk mirrors the matrix to "<id>.spb" (no-op without a dir)
// through the durable atomic-write path: temp file, fsync, rename,
// directory fsync — a crash never leaves a torn dataset, and the
// rename itself survives power loss.  The encoding streams from m's own
// memory, so a mirror costs no second copy of the matrix.  Call without
// holding the manager lock.
func (s *dsStore) writeDisk(id string, m matrix.Matrix) error {
	if s.dir == "" {
		return nil
	}
	if fi, err := os.Stat(s.path(id)); err == nil && fi.Mode().IsRegular() {
		return nil // already mirrored (content-addressed: bytes identical)
	}
	return durable.WriteFileAtomic(s.path(id), func(w io.Writer) error {
		// Runs of NaN-free rows pass the buffer by; it gathers the
		// header, NaN rows and sections into few writes.
		bw := bufio.NewWriterSize(w, 64<<10)
		if err := matrix.Encode(bw, m, nil, nil, matrix.RowMajor); err != nil {
			return err
		}
		return bw.Flush()
	}, "dataset.write")
}

// readDisk loads a mirrored dataset and verifies its content address.
// A mirror whose bytes fail to decode or whose digest no longer matches
// its name is quarantined (renamed to "<id>.spb.corrupt") and reported
// as ErrUnknownDataset — the repair paths already exist: a coordinator
// re-pushes on 404, a client re-uploads the same bytes.  Call without
// holding the manager lock.
func (s *dsStore) readDisk(id string) (matrix.Matrix, error) {
	if s.dir == "" || !validDatasetID(id) {
		return matrix.Matrix{}, ErrUnknownDataset
	}
	data, err := durable.ReadFile(s.path(id), "dataset.read")
	if err != nil {
		return matrix.Matrix{}, ErrUnknownDataset
	}
	quarantine := func() {
		_ = durable.Quarantine(s.path(id))
		if s.noteCorrupt != nil {
			s.noteCorrupt(id)
		}
	}
	sf, err := matrix.Decode(bytes.NewReader(data))
	if err != nil {
		quarantine()
		return matrix.Matrix{}, ErrUnknownDataset
	}
	// The file name claims the content; verify it, so a corrupted or
	// hand-renamed mirror can never serve the wrong cells under this id.
	if got := DatasetDigest(sf.M); got != id {
		quarantine()
		return matrix.Matrix{}, ErrUnknownDataset
	}
	return sf.M, nil
}

// readDiskInfo reads a mirrored dataset's shape from its spb header
// without decoding the payload.  Call without holding the manager lock.
func (s *dsStore) readDiskInfo(id string) (genes, samples int, err error) {
	if s.dir == "" || !validDatasetID(id) {
		return 0, 0, ErrUnknownDataset
	}
	f, err := os.Open(s.path(id))
	if err != nil {
		return 0, 0, ErrUnknownDataset
	}
	defer f.Close()
	genes, samples, err = matrix.ReadSPBHeader(f)
	if err != nil {
		return 0, 0, fmt.Errorf("jobs: dataset mirror %s: %w", id, err)
	}
	return genes, samples, nil
}

// prepKeyFor identifies a shared preparation: the prep-relevant option
// subset (test, side, nonpara, NA code) plus the class labels.  opt must
// already be canonical.
func prepKeyFor(opt core.Options, labels []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%s|%016x|", opt.Test, opt.Side, opt.Nonpara, math.Float64bits(opt.NA))
	for _, l := range labels {
		fmt.Fprintf(&sb, "%d,", l)
	}
	return sb.String()
}

// prepSlotFor returns the entry's build-once slot for (opt, labels),
// creating it (and evicting the least recently used preparation beyond
// maxPrepsPerDataset) on first request.  Callers hold the manager lock;
// the actual build runs later, outside it, via slot.once.
func prepSlotFor(e *dsEntry, opt core.Options, labels []int, now time.Time) *prepSlot {
	key := prepKeyFor(opt, labels)
	if slot, ok := e.preps[key]; ok {
		slot.lastUse = now
		return slot
	}
	if len(e.preps) >= maxPrepsPerDataset {
		oldestKey := ""
		var oldest time.Time
		for k, sl := range e.preps {
			if oldestKey == "" || sl.lastUse.Before(oldest) {
				oldestKey, oldest = k, sl.lastUse
			}
		}
		delete(e.preps, oldestKey)
	}
	slot := &prepSlot{lastUse: now}
	e.preps[key] = slot
	return slot
}

// ---- Manager surface ---------------------------------------------------

// PutDataset registers a matrix in the content-addressed registry and
// returns its info plus whether the call created it (false = the dataset
// was already registered; uploads deduplicate by content).  The manager
// takes ownership of m: callers must not modify it afterwards.  With a
// dataset directory configured the matrix is also mirrored to disk, so it
// survives both LRU eviction and a daemon restart.
func (m *Manager) PutDataset(x matrix.Matrix) (DatasetInfo, bool, error) {
	if x.IsEmpty() {
		return DatasetInfo{}, false, fmt.Errorf("jobs: empty dataset")
	}
	if !matrix.IsShape(len(x.Data), x.Rows, x.Cols) {
		return DatasetInfo{}, false, fmt.Errorf("jobs: dataset has %d values for %dx%d", len(x.Data), x.Rows, x.Cols)
	}
	// The digest is a full pass over the cells: compute it before taking
	// the lock so concurrent uploads hash in parallel.
	id := DatasetDigest(x)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return DatasetInfo{}, false, ErrClosed
	}
	now := m.cfg.Clock()
	if e, ok := m.datasets.entries[id]; ok {
		m.datasets.touch(e, now)
		info := e.info()
		m.mu.Unlock()
		// Re-uploading is the repair path for a previously failed mirror:
		// writeDisk no-ops when the mirror already exists, and writes it
		// when an earlier attempt failed (disk full, since fixed) — so a
		// re-PUT of the same bytes restores restart durability instead of
		// silently leaving the dataset memory-only.
		if err := m.datasets.writeDisk(id, e.m); err != nil {
			return info, false, fmt.Errorf("jobs: dataset registered but disk mirror failed: %w", err)
		}
		return info, false, nil
	}
	e := newEntry(id, x, 0, now)
	m.datasets.insert(e)
	m.met.dsAdded.Inc()
	info := e.info()
	m.mu.Unlock()

	// The disk mirror write happens outside the lock (it can be tens of
	// megabytes).  A mirror failure degrades durability, not service:
	// the in-memory entry stays valid, so the error is reported but the
	// id remains usable.
	if err := m.datasets.writeDisk(id, x); err != nil {
		return info, true, fmt.Errorf("jobs: dataset registered but disk mirror failed: %w", err)
	}
	return info, true, nil
}

// Datasets lists the registered datasets, most recently used first.
func (m *Manager) Datasets() []DatasetInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DatasetInfo, 0, len(m.datasets.entries))
	for el := m.datasets.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*dsEntry).info())
	}
	return out
}

// DatasetInfoByID returns the info of one registered dataset.  It is a
// pure read: an entry evicted to the disk mirror is answered from the
// spb header alone (id, shape, size) — no multi-megabyte decode, no
// digest pass, and no LRU mutation for a metadata request.
func (m *Manager) DatasetInfoByID(id string) (DatasetInfo, error) {
	m.mu.Lock()
	if e, ok := m.datasets.entries[id]; ok {
		info := e.info()
		m.mu.Unlock()
		return info, nil
	}
	m.mu.Unlock()
	genes, samples, err := m.datasets.readDiskInfo(id)
	if err != nil {
		return DatasetInfo{}, err
	}
	return DatasetInfo{ID: id, Genes: genes, Samples: samples, Bytes: int64(genes) * int64(samples) * 8}, nil
}

// DeleteDataset removes a dataset from the registry, memory and disk
// mirror both.  Datasets still referenced by queued or running jobs are
// protected (ErrDatasetBusy).  The mirror removal happens under the
// manager lock — it is one cheap unlink, and keeping it inside the
// critical section is what lets datasetRef's reload path detect a
// concurrent delete instead of resurrecting the entry.
func (m *Manager) DeleteDataset(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.datasets.entries[id]
	if ok && e.refs > 0 {
		return ErrDatasetBusy
	}
	if ok {
		m.datasets.remove(e)
	}
	onDisk := false
	if m.datasets.dir != "" && validDatasetID(id) {
		p := m.datasets.path(id)
		if _, err := os.Stat(p); err == nil {
			onDisk = true
			if err := os.Remove(p); err != nil {
				// The mirror survived: the id would silently resurrect on
				// the next reload, so a confirmed delete must not be
				// reported.
				return fmt.Errorf("jobs: deleting dataset mirror: %w", err)
			}
		}
	}
	if !ok && !onDisk {
		return ErrUnknownDataset
	}
	return nil
}

// datasetRef resolves a dataset id to its entry with the reference count
// incremented — the caller owns one reference and must release it via
// releaseDatasetLocked.  Entries evicted from memory fall back to the
// disk mirror.
func (m *Manager) datasetRef(id string) (*dsEntry, error) {
	m.mu.Lock()
	now := m.cfg.Clock()
	if e, ok := m.datasets.entries[id]; ok {
		e.refs++
		m.met.dsHits.Inc()
		m.datasets.touch(e, now)
		m.mu.Unlock()
		return e, nil
	}
	m.mu.Unlock()

	// Miss: try the disk mirror outside the lock (a decode can be tens
	// of megabytes and must not stall API handlers).
	x, err := m.datasets.readDisk(id)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.met.dsReloads.Inc()
	now = m.cfg.Clock()
	if e, ok := m.datasets.entries[id]; ok { // lost a reload race: use theirs
		e.refs++
		m.datasets.touch(e, now)
		return e, nil
	}
	// The reload read the mirror OUTSIDE the lock, so a concurrent
	// DeleteDataset (which unlinks under the lock) may have confirmed a
	// deletion in between — the open fd kept the bytes readable past the
	// unlink.  Re-checking the mirror's existence under the lock closes
	// that window: a deleted dataset must stay deleted, not resurrect.
	if _, err := os.Stat(m.datasets.path(id)); err != nil {
		return nil, ErrUnknownDataset
	}
	e := newEntry(id, x, 1, now)
	m.datasets.insert(e)
	return e, nil
}

// releaseDatasetLocked drops one job reference.  Callers hold m.mu.
func (m *Manager) releaseDatasetLocked(e *dsEntry) {
	if e == nil {
		return
	}
	e.refs--
	m.datasets.evict(nil) // an unpinned entry may now satisfy a pending bound
}
