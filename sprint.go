// Package sprint is a Go reproduction of the SPRINT R package's parallel
// permutation testing function pmaxT, after Petrou et al., "Optimization of
// a parallel permutation testing function for the SPRINT R package"
// (HPDC/ECMLS 2010; Concurrency and Computation: Practice and Experience
// 23(17), 2011).
//
// The library computes Westfall–Young step-down maxT adjusted p-values for
// multiple hypothesis testing over a gene-expression matrix, by permutation
// of the sample class labels.  Two entry points mirror the paper's pair of
// functions:
//
//   - MaxT is the serial baseline, equivalent to mt.maxT from the
//     Bioconductor multtest package.
//   - PMaxT distributes the permutation count over goroutine "ranks"
//     communicating through an in-process MPI-style substrate, exactly as
//     pmaxT distributes it over MPI processes.  Its results are
//     bit-identical to MaxT for any process count, and its profile reports
//     the five timed sections of the paper's Tables I–V.
//
// Quick start:
//
//	data, _ := sprint.GenerateDataset(sprint.DatasetOptions{
//		Genes: 1000, Samples: 76, Classes: 2, DiffFraction: 0.05,
//		EffectSize: 1.5, Seed: 7,
//	})
//	opt := sprint.DefaultOptions()
//	opt.B = 10000
//	res, err := sprint.PMaxT(data.X, data.Labels, runtime.NumCPU(), opt)
//
// Beyond the library, NewServer exposes the same analyses as a long-lived
// JSON-over-HTTP job service (the cmd/pmaxtd daemon): an asynchronous
// bounded queue, a worker pool, a content-addressed result cache, and
// checkpoint-backed resume for cancelled or crashed jobs.
//
// The package's Example functions are complete programs that go test runs;
// see DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-reproduction measurements.
package sprint

import (
	"fmt"
	"io"

	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// Options configures MaxT and PMaxT, mirroring the R signature
// pmaxT(X, classlabel, test, side, fixed.seed.sampling, B, na, nonpara).
type Options = core.Options

// Result carries statistics, raw and adjusted p-values, the significance
// order, the effective permutation count and the section profile.
type Result = core.Result

// Profile holds the five timed sections reported in the paper's tables.
type Profile = core.Profile

// Dataset is an expression matrix with sample class labels and gene names.
type Dataset = microarray.Dataset

// DatasetOptions configures the synthetic microarray generator.
type DatasetOptions = microarray.GenOptions

// DefaultNA is the multtest missing-value code (.mt.naNUM).
const DefaultNA = core.DefaultNA

// Run modes for Options.Mode.  ModeExact is the historical fixed-B engine
// and the default; ModeSequential runs the adaptive early-stopping engine
// with anytime-valid confidence sequences (see Options.Mode in core).
const (
	ModeExact      = core.ModeExact
	ModeSequential = core.ModeSequential
)

// DefaultOptions returns the documented mt.maxT defaults: Welch t, absolute
// rejection region, on-the-fly sampling, B = 10000.
func DefaultOptions() Options { return core.DefaultOptions() }

// MaxT computes Westfall–Young step-down maxT adjusted p-values serially —
// the original mt.maxT behaviour.  x is the expression matrix (rows =
// genes, columns = samples); classlabel assigns each column a class as
// required by the chosen test.
func MaxT(x [][]float64, classlabel []int, opt Options) (*Result, error) {
	return Run(x, classlabel, opt, RunControl{NProcs: 1})
}

// PMaxT computes the same result as MaxT using nprocs parallel ranks.  The
// permutation count is divided into equal contiguous chunks, each rank
// forwards its generator to its chunk (the observed labelling is handled
// only by the master), and partial exceedance counts are reduced on the
// master — the algorithm of Section 3.2 of the paper.
func PMaxT(x [][]float64, classlabel []int, nprocs int, opt Options) (*Result, error) {
	m, err := rowsMatrix(x)
	if err != nil {
		return nil, err
	}
	return core.PMaxTMatrix(m, classlabel, nprocs, opt)
}

// SetKernel selects the accumulation kernel by name — "auto" or an ISA
// the CPU runs (pmaxt -kernel lists them) — returning the name now active.  Meant for
// process startup (the pmaxt -kernel flag); every kernel produces
// bitwise identical results, so this is purely a performance knob.
func SetKernel(name string) (string, error) { return core.SetKernel(name) }

// KernelName reports the active accumulation kernel.
func KernelName() string { return core.KernelName() }

// GenerateDataset synthesises a microarray-like dataset with known
// differential genes, suitable for validating analyses and for regenerating
// the paper's benchmark workloads.
func GenerateDataset(opt DatasetOptions) (*Dataset, error) {
	return microarray.Generate(opt)
}

// PaperDataset returns the generator options for the paper's primary
// benchmark matrix: 6102 genes × 76 samples, two classes of 38 samples.
func PaperDataset() DatasetOptions { return microarray.PaperDataset() }

// ReadDatasetCSV parses a dataset in the CSV layout written by
// Dataset.WriteCSV: a header of sample names with ".c<class>" suffixes,
// then one row per gene.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) {
	return microarray.ReadCSV(r)
}

// ReadDatasetSPB parses a dataset in the binary spb format written by
// Dataset.WriteSPB (or cmd/datagen -format spb): the zero-copy columnar
// encoding the data plane serves from.  The stream must carry class
// labels; gene names are optional.
func ReadDatasetSPB(r io.Reader) (*Dataset, error) {
	return microarray.ReadSPB(r)
}

// FromColumnMajor converts a column-major flat matrix — R's native layout
// for a genes×samples matrix — into the row-per-gene form MaxT and PMaxT
// consume.  The conversion transposes in place (the paper's future-work
// item 2: no second matrix allocation); the input slice is consumed and
// backs the returned rows, which are views into one contiguous flat
// buffer — the engine's native layout.
func FromColumnMajor(flat []float64, genes, samples int) [][]float64 {
	return matrix.FromColumnMajor(flat, genes, samples).RowsView()
}

// Checkpoint is a resumable snapshot of a long serial permutation run —
// the paper's future-work item 1.  Obtain one from MaxTCheckpointed's save
// callback, persist it with Encode, and pass a decoded copy back as resume
// after a failure.
type Checkpoint = core.Checkpoint

// ErrCheckpointMismatch reports a checkpoint that does not belong to the
// analysis being resumed.
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// DecodeCheckpoint reads a checkpoint previously written with
// Checkpoint.Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	return core.DecodeCheckpoint(r)
}

// MaxTCheckpointed runs MaxT with periodic checkpoints: every `every`
// permutations the save callback receives a snapshot that a later call can
// resume from.  The final result is bit-identical to an uninterrupted run.
// save runs while the next window computes, one call at a time, and has
// returned before MaxTCheckpointed does; an error from it ends the run.
func MaxTCheckpointed(x [][]float64, classlabel []int, opt Options, resume *Checkpoint, every int64, save func(*Checkpoint) error) (*Result, error) {
	if every <= 0 {
		return nil, fmt.Errorf("sprint: checkpoint interval %d must be positive", every)
	}
	return Run(x, classlabel, opt, RunControl{Resume: resume, Every: every, Save: save})
}

// Server is the pmaxtd job server: the permutation testing function behind
// an asynchronous JSON-over-HTTP API with a bounded fair queue, a worker
// pool, a content-addressed result cache and checkpoint-backed resume.
// Mount Handler on an http.Server (or use the cmd/pmaxtd daemon).
type Server = httpapi.Server

// ServerConfig configures NewServer: HTTP limits plus the embedded
// JobsConfig sizing the queue, workers, cache and checkpoint store.
type ServerConfig = httpapi.Config

// JobsConfig sizes the job manager inside a Server (workers, queue depth,
// default rank count, checkpoint window and directory, cache size).
type JobsConfig = jobs.Config

// JobStatus is a point-in-time snapshot of a submitted job.
type JobStatus = jobs.Status

// NewServer starts a job server (its worker pool starts immediately).
// Call Close to drain it; in-flight jobs stop at their next checkpoint
// window and resume on resubmission after a restart.
func NewServer(cfg ServerConfig) (*Server, error) {
	return httpapi.New(cfg)
}

// Run executes the permutation testing function under service control:
// cancellation via RunControl.Ctx, progress callbacks, checkpoint saves
// every RunControl.Every permutations, resume from a prior checkpoint, and
// an NProcs-way parallel kernel.  Results are bit-identical to MaxT for
// every control setting.
func Run(x [][]float64, classlabel []int, opt Options, ctl RunControl) (*Result, error) {
	m, err := rowsMatrix(x)
	if err != nil {
		return nil, err
	}
	return core.RunMatrix(m, classlabel, opt, ctl)
}

// rowsMatrix copies the row-per-gene surface into the flat matrix the
// engine computes on.
func rowsMatrix(x [][]float64) (matrix.Matrix, error) {
	if len(x) == 0 {
		return matrix.Matrix{}, fmt.Errorf("sprint: empty input matrix")
	}
	return matrix.FromRows(x)
}

// RunControl carries the service hooks of a supervised Run.
type RunControl = core.RunControl
