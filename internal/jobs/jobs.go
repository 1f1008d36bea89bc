// Package jobs implements the asynchronous job layer of pmaxtd: a bounded
// weighted-fair queue of permutation-testing analyses, a worker pool that
// runs them through core.RunPrepared with per-job rank counts, a
// content-addressed cache of finished results, and a checkpoint store
// that lets a cancelled, evicted or crashed job resume where it stopped
// instead of restarting.
//
// The design follows the service shape the paper's pmaxT implies but never
// builds: the analysis itself is deterministic and bit-identical for any
// partitioning (Section 3.2), so a job is fully described by its inputs —
// dataset, class labels and options.  That determinism is what makes both
// the cache and the checkpoint store safe: once a run of a content key
// finishes, every later submission of that key is answered from the
// cache, and a half-finished run's exceedance counts are a valid prefix
// of any later run of the same key.  (Identical submissions that are
// simultaneously in flight each compute independently — the cache dedups
// completed work, not running work.)
package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"sprint/internal/core"
	"sprint/internal/matrix"
)

// Spec describes one analysis submission.
type Spec struct {
	// X is the expression matrix (rows = genes, columns = samples) and
	// Labels assigns each column a class, exactly as in sprint.MaxT.
	X      [][]float64
	Labels []int
	// XFlat, when non-nil, supplies the matrix as one flat column-major
	// buffer (R's native layout: Genes×Samples values, column by column)
	// instead of X.  The manager transposes it into a new buffer in the
	// engine's row-major layout; the caller's slice is never modified, so
	// a submission rejected with ErrQueueFull can be retried verbatim.
	// Exactly one of X, XFlat and DatasetID must be set.
	XFlat          []float64
	Genes, Samples int
	// DatasetID submits against a matrix previously registered with
	// Manager.PutDataset (or the PUT /v1/datasets endpoint): the
	// submission carries no matrix at all, the content key is derived
	// from the registered digest without touching a single cell, and the
	// run reuses the registry's cached preparation (scrub, rank
	// transform, moment precompute) when one exists for this (labels,
	// options) combination.
	DatasetID string
	// Opt configures the analysis.  Zero-valued fields take the mt.maxT
	// defaults (core.DefaultOptions semantics via canonicalisation).
	Opt core.Options
	// NProcs is the rank count for this job's kernel; values < 1 take the
	// manager's default.
	NProcs int
	// Every is an exact job's checkpoint/progress window in permutations
	// (a sequential job's is core.DefaultSeqWindow); values < 1 take the
	// manager's default.
	Every int64
	// Tenant names the submitting tenant for rate limiting and accounting
	// (the X-Tenant header over HTTP).  Empty is the anonymous tenant.
	// Tenant never enters the content key: identical analyses from
	// different tenants share cache and checkpoints.
	Tenant string
	// Class optionally forces the fairness class: "interactive" or
	// "bulk".  Empty classifies by size (B at most the manager's
	// InteractiveMaxB, and sampled rather than complete, is interactive).
	// Like Tenant, it never enters the content key.
	Class string
}

// State is a job's lifecycle phase.
type State string

const (
	// Queued jobs wait in the queue for a free worker.
	Queued State = "queued"
	// Running jobs own a worker and are processing permutations.
	Running State = "running"
	// Done jobs finished; their result is in the cache.
	Done State = "done"
	// Failed jobs stopped with a non-cancellation error.
	Failed State = "failed"
	// Cancelled jobs were stopped by request (or shutdown); their last
	// checkpoint is retained so a resubmission resumes, not restarts.
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	// ID identifies the job; Key is the content address of its inputs
	// (dataset hash + canonical options), shared by identical submissions.
	ID  string
	Key string
	// State is the lifecycle phase; Error is set for Failed jobs.
	State State
	Error string
	// Done and Total track permutation progress, including permutations
	// inherited from a resumed checkpoint.  Total is 0 until the run has
	// planned its permutation count (relevant for complete enumerations).
	Done  int64
	Total int64
	// ResumedFrom is the first permutation index this run actually
	// processed when it resumed a checkpoint; 0 for fresh runs.
	ResumedFrom int64
	// CacheHit reports that the job was answered from the result cache
	// without computing anything.
	CacheHit bool
	// NProcs is the rank count the job runs with.
	NProcs int
	// Tenant and Class report the admission identity the job ran under.
	Tenant string
	Class  string
	// Mode names the engine the job runs under ("exact" or "sequential"),
	// resolved from the canonical options at submission.
	Mode string
	// SeqActiveRows and SeqPermsSaved track sequential-mode progress: the
	// rows still accumulating and the per-row permutation evaluations
	// already avoided relative to the planned total.  Zero on exact jobs.
	SeqActiveRows int
	SeqPermsSaved int64
	// Profile holds the five-section time profile once the job is Done
	// (zero for cache hits, which time nothing).
	Profile core.Profile
	// SubmittedAt, StartedAt and FinishedAt stamp the lifecycle; zero when
	// the phase has not happened.
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

// validate checks the matrix payload's shape without copying anything.
func (s *Spec) validate() error {
	if s.DatasetID != "" {
		if s.X != nil || s.XFlat != nil {
			return fmt.Errorf("jobs: submission carries both a dataset id and a matrix payload")
		}
		return nil
	}
	if s.XFlat != nil {
		if s.X != nil {
			return fmt.Errorf("jobs: submission carries both X and XFlat")
		}
		if s.Genes < 1 || s.Samples < 1 {
			return fmt.Errorf("jobs: flat submission needs positive Genes and Samples, got %dx%d", s.Genes, s.Samples)
		}
		if !matrix.IsShape(len(s.XFlat), s.Genes, s.Samples) {
			return fmt.Errorf("jobs: flat submission has %d values for %d genes × %d samples",
				len(s.XFlat), s.Genes, s.Samples)
		}
		return nil
	}
	if len(s.X) == 0 {
		return fmt.Errorf("jobs: empty input matrix")
	}
	cols := len(s.X[0])
	if cols == 0 {
		return fmt.Errorf("jobs: matrix row 0 has no columns")
	}
	for i, row := range s.X {
		if len(row) != cols {
			return fmt.Errorf("jobs: matrix row %d has %d columns, row 0 has %d", i, len(row), cols)
		}
	}
	return nil
}

// resolve converts the submission's matrix payload (row slices or a flat
// column-major buffer) into the engine's flat row-major matrix; s must
// be a validated inline submission (contentKey validates).  The caller's
// buffers are never modified: the flat form is transposed out of place
// into a new buffer, so a submission rejected later (queue full, closed
// manager) can be retried verbatim.
func (s *Spec) resolve() (matrix.Matrix, error) {
	if s.XFlat != nil {
		// Column-major genes×samples is row-major samples×genes.
		return matrix.Matrix{Data: matrix.Transpose(s.XFlat, s.Samples, s.Genes), Rows: s.Genes, Cols: s.Samples}, nil
	}
	m, err := matrix.FromRows(s.X)
	if err != nil {
		return matrix.Matrix{}, fmt.Errorf("jobs: %w", err)
	}
	return m, nil
}

// contentKey hashes the submission whichever form it arrived in —
// producing exactly KeyMatrix of the resolved matrix — without copying or
// transposing the matrix, so cache hits and queue-full rejections never
// pay the matrix copy.  It also returns the dataset digest inside the
// key, so the caller never hashes the cells a second time.  Dataset-id
// submissions hash nothing at all: the id IS the matrix digest, so the
// key costs a few hundred bytes of SHA-256 instead of a pass over the
// cells.
func (s *Spec) contentKey() (key, digest string, err error) {
	if err := s.validate(); err != nil {
		return "", "", err
	}
	switch {
	case s.DatasetID != "":
		digest = s.DatasetID
	case s.XFlat != nil:
		// Column j of the column-major payload holds the tile's cells of
		// that column as n contiguous values.
		genes, cols := s.Genes, s.Samples
		digest = datasetDigestRows(genes, cols, func(tile []float64, i0, n int) {
			for j := 0; j < cols; j++ {
				for r, v := range s.XFlat[j*genes+i0 : j*genes+i0+n] {
					tile[r*cols+j] = canonNaN(v)
				}
			}
		})
	default:
		cols := len(s.X[0])
		digest = datasetDigestRows(len(s.X), cols, func(tile []float64, i0, n int) {
			for r, row := range s.X[i0 : i0+n] {
				canonCopy(tile[r*cols:(r+1)*cols], row)
			}
		})
	}
	key, err = jobKey(digest, s.Labels, s.Opt)
	return key, digest, err
}

// DatasetDigest computes the content address of a matrix: a SHA-256 over
// its dimensions and row-major cell bits, with every NaN hashed as the
// one canonical quiet NaN so the digest is independent of how a producer
// spelled its missing values.  The digest is the dataset id of the
// registry: same cells, same id — however the matrix arrived (rows, flat
// column-major or binary).
func DatasetDigest(m matrix.Matrix) string {
	return datasetDigestRows(m.Rows, m.Cols, func(tile []float64, i0, n int) {
		canonCopy(tile, m.Data[i0*m.Cols:(i0+n)*m.Cols])
	})
}

// digestTileRows is the number of rows one SHA-256 write of the content
// digest covers.
const digestTileRows = 8

// canonicalNaN is the one NaN bit pattern the content digest hashes.
var canonicalNaN = math.NaN()

// canonNaN maps every NaN to canonicalNaN and leaves other values alone.
func canonNaN(v float64) float64 {
	if v != v {
		return canonicalNaN
	}
	return v
}

// canonCopy copies src into dst through canonNaN.
func canonCopy(dst, src []float64) {
	for k, v := range src {
		dst[k] = canonNaN(v)
	}
}

// datasetDigestRows is the one digest loop: DatasetDigest over a source
// that fill(tile, i0, n) copies rows i0…i0+n-1 of, row-major and through
// canonNaN, into tile[:n*cols].  Each tile of up to digestTileRows rows
// reaches the hash as one write, straight from the tile's memory on a
// little-endian host, so row-slice, column-major and registered matrices
// hash the same bytes with no allocation the size of the matrix.
func datasetDigestRows(rows, cols int, fill func(tile []float64, i0, n int)) string {
	h := sha256.New()
	h.Write([]byte("sprint-dataset-v1"))
	var shape [16]byte
	binary.LittleEndian.PutUint64(shape[:8], uint64(rows))
	binary.LittleEndian.PutUint64(shape[8:], uint64(cols))
	h.Write(shape[:])
	tile := make([]float64, min(rows, digestTileRows)*cols)
	var buf []byte // the tile's bytes on a big-endian host
	for i0 := 0; i0 < rows; i0 += digestTileRows {
		n := min(digestTileRows, rows-i0)
		t := tile[:n*cols]
		fill(t, i0, n)
		b, ok := matrix.LittleEndianBytes(t)
		if !ok {
			buf = buf[:0]
			for _, v := range t {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			b = buf
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KeyMatrix computes the content address of a submission: the dataset
// digest of the matrix combined with the class labels and the canonical
// options.  ScalarParams is excluded — it changes only the broadcast wire
// protocol, never the result — as are NProcs and Every, because results
// are bit-identical for every rank count and window size.  Row-slice,
// flat column-major and dataset-id submissions of the same data therefore
// share one key.
func KeyMatrix(m matrix.Matrix, labels []int, opt core.Options) (string, error) {
	return jobKey(DatasetDigest(m), labels, opt)
}

// jobKey combines a dataset digest with the run identity (labels +
// canonical options) into the content address of one analysis.
func jobKey(datasetDigest string, labels []int, opt core.Options) (string, error) {
	canon, err := core.CanonicalOptions(opt)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}
	h.Write([]byte("sprint-job-v1"))
	writeStr(datasetDigest)
	writeInt(int64(len(labels)))
	for _, l := range labels {
		writeInt(int64(l))
	}
	writeStr(canon.Test)
	writeStr(canon.Side)
	writeStr(canon.FixedSeedSampling)
	writeStr(canon.Nonpara)
	writeInt(canon.B)
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(canon.NA))
	h.Write(buf[:])
	writeInt(int64(canon.Seed))
	writeInt(canon.MaxComplete)
	// The sequential fields are hashed ONLY for sequential jobs, so every
	// exact-mode key is byte-identical to the keys this layer produced
	// before the mode knob existed — cached exact results stay addressable.
	if canon.Mode == core.ModeSequential {
		writeStr(canon.Mode)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(canon.SeqAlpha))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(canon.SeqTolerance))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Errors reported by the manager.
var (
	// ErrQueueFull rejects a submission when the queue is at capacity.
	ErrQueueFull = fmt.Errorf("jobs: queue full")
	// ErrClosed rejects operations on a closed manager.
	ErrClosed = fmt.Errorf("jobs: manager closed")
	// ErrUnknownJob reports a job ID the manager does not know.
	ErrUnknownJob = fmt.Errorf("jobs: unknown job")
	// ErrNotDone reports a result request for an unfinished job.
	ErrNotDone = fmt.Errorf("jobs: job not done")
	// ErrResultEvicted reports a done job whose result has left the result
	// cache.  Results are a pure function of the inputs, so resubmitting
	// the job recomputes the identical bits.
	ErrResultEvicted = fmt.Errorf("jobs: result evicted from the result cache; resubmit the job to recompute it")
	// ErrUnknownDataset reports a dataset id the registry does not hold
	// (neither in memory nor in its disk mirror).
	ErrUnknownDataset = fmt.Errorf("jobs: unknown dataset")
	// ErrDatasetBusy rejects deleting a dataset that queued or running
	// jobs still hold a reference to.
	ErrDatasetBusy = fmt.Errorf("jobs: dataset in use by queued or running jobs")
)
