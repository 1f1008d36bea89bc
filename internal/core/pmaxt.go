package core

import (
	"fmt"
	"runtime"
	"time"

	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/mpi"
	"sprint/internal/perm"
	"sprint/internal/sprintfw"
	"sprint/internal/stat"
)

// Profile records the five timed sections of the pmaxT implementation, the
// row layout of Tables I–V in the paper.
type Profile struct {
	PreProcessing   time.Duration // Step 1: master-side option checking and NA scrub
	BroadcastParams time.Duration // Step 2: parameter broadcast + Step 3 sync
	CreateData      time.Duration // Step 4a: data broadcast and per-rank preparation
	MainKernel      time.Duration // Step 4b: local permutations
	ComputePValues  time.Duration // Step 5: count reduction and p-value computation
}

// Total returns the summed wall time of all sections.
func (p Profile) Total() time.Duration {
	return p.PreProcessing + p.BroadcastParams + p.CreateData + p.MainKernel + p.ComputePValues
}

// Result is the outcome of a permutation run.  A Result is read-only:
// Stat and Order alias the preparation they were computed over, which
// RunPrepared shares among all runs on it, and the jobs layer hands one
// cached *Result to every job with the same content key.
type Result struct {
	// Stat holds the observed (untransformed) statistic per row.
	Stat []float64
	// RawP holds unadjusted permutation p-values per row.
	RawP []float64
	// AdjP holds Westfall–Young step-down maxT adjusted p-values per row.
	AdjP []float64
	// Order lists row indices by decreasing significance.
	Order []int
	// B is the number of permutations actually performed, including the
	// observed labelling.
	B int64
	// Complete reports whether the run enumerated all permutations.
	Complete bool
	// NProcs is the process (goroutine rank) count used.
	NProcs int
	// Profile holds the master's per-section timings.
	Profile Profile
	// KernelMax is the slowest rank's kernel time; with balanced chunks
	// it tracks Profile.MainKernel closely.
	KernelMax time.Duration
	// Mode names the engine that produced the result: "" or ModeExact for
	// the exact engine, ModeSequential for the early-stopping engine.
	Mode string
	// PlannedB is the permutation count the run would have performed
	// without early stopping; zero on exact results (where it equals B).
	PlannedB int64
	// BEff, on sequential results, holds per matrix row the effective
	// permutation count its p-values are estimated over (RawP[i] =
	// Raw[i]/BEff[i]); zero for rows with no computable statistic.  Nil on
	// exact results, where every row's count is B.
	BEff []int64
}

// Sequential reports whether the result came from the early-stopping
// engine.
func (r *Result) Sequential() bool { return r.Mode == ModeSequential }

// SeqPermsSaved returns the number of per-row permutation evaluations the
// sequential engine avoided relative to running every row to PlannedB:
// the sum over rows of PlannedB - BEff[i].  Zero on exact results.
func (r *Result) SeqPermsSaved() int64 {
	if !r.Sequential() {
		return 0
	}
	var saved int64
	for _, b := range r.BEff {
		if b > 0 && b < r.PlannedB {
			saved += r.PlannedB - b
		}
	}
	return saved
}

// SeqRowsStopped returns how many rows the sequential engine froze before
// PlannedB permutations.  Zero on exact results.
func (r *Result) SeqRowsStopped() int {
	if !r.Sequential() {
		return 0
	}
	n := 0
	for _, b := range r.BEff {
		if b > 0 && b < r.PlannedB {
			n++
		}
	}
	return n
}

// Chunk returns the permutation index range [lo, hi) owned by rank within
// a B-permutation sequence split across size ranks, following Figure 2 of
// the paper: contiguous, equal chunks, with the observed labelling (index
// 0) falling into the master's chunk only.
func Chunk(B int64, size, rank int) (lo, hi int64) {
	s, r := int64(size), int64(rank)
	return B * r / s, B * (r + 1) / s
}

// ChunkAligned is Chunk with interior boundaries rounded up to multiples
// of batch, so every rank's chunk (except possibly the last) is a whole
// number of kernel batches and no rank pays a ragged tail batch.  The
// boundaries remain monotone and cover [0, B) exactly; counts merge by
// addition, so alignment never changes results — it only changes which
// rank evaluates which permutations.  batch <= 1 degenerates to Chunk.
func ChunkAligned(B int64, size, rank int, batch int) (lo, hi int64) {
	lo, hi = Chunk(B, size, rank)
	return alignBoundary(lo, B, batch), alignBoundary(hi, B, batch)
}

// alignBoundary rounds an interior chunk boundary up to a batch multiple,
// clamped to the sequence end.
func alignBoundary(b, B int64, batch int) int64 {
	if batch <= 1 || b == 0 || b >= B {
		return b
	}
	bb := int64(batch)
	a := (b + bb - 1) / bb * bb
	if a > B {
		a = B
	}
	return a
}

// job carries the master's inputs into the collective evaluation.  In real
// SPRINT the workers receive everything over MPI; here the struct rides the
// command broadcast by reference and the explicit broadcasts below mirror
// the wire protocol (and are what the profile sections time).
type job struct {
	x          matrix.Matrix
	classlabel []int
	opt        Options
}

// FunctionName is the registry name of the parallel permutation testing
// function.
const FunctionName = "pmaxt"

// NewFunction returns the sprintfw registration of pmaxT.
func NewFunction() sprintfw.Function {
	return sprintfw.FuncOf(FunctionName, evalPMaxT)
}

// Registry returns a SPRINT function library with pmaxT registered, ready
// for sprintfw.Run.
func Registry() *sprintfw.Registry {
	reg := sprintfw.NewRegistry()
	reg.MustRegister(NewFunction())
	return reg
}

// paramsMsg is the Step 2 payload: string option lengths first, then the
// string bytes, then the scalar options — the order described in the paper.
type paramsMsg struct {
	strLens []int
	strs    []byte
	scalars []int64
}

// evalPMaxT is the collective body of pmaxT: Steps 1–6 of Section 3.2.
// The master (rank 0) returns a *Result; workers return nil.
func evalPMaxT(c *mpi.Comm, args any) (any, error) {
	master := c.Rank() == 0
	var prof Profile

	// ---- Step 1: pre-processing (master only) -------------------------
	// Validate parameters, transform them to the internal format, and
	// scrub the NA code (a scan, and a copy only when something needs
	// replacing).  Workers wait in Step 2's broadcast.
	var cfg config
	var x matrix.Matrix
	var classlabel []int
	if master {
		j, ok := args.(*job)
		if !ok {
			return nil, fmt.Errorf("core: pmaxt called with %T, want *job", args)
		}
		start := time.Now()
		var err error
		cfg, err = parseOptions(j.opt)
		if err != nil {
			return nil, err
		}
		if cfg.mode == modeSequential {
			// The sprintfw collective is a fixed-work protocol: every rank
			// must process its whole chunk.  The supervised RunPrepared
			// path owns sequential execution.
			return nil, fmt.Errorf("core: pmaxt (MPI-style collective) supports mode \"exact\" only; run mode \"sequential\" through Run or RunPrepared")
		}
		if j.x.IsEmpty() {
			return nil, fmt.Errorf("core: empty input matrix")
		}
		x = scrubNA(j.x, cfg.na)
		classlabel = j.classlabel
		prof.PreProcessing = time.Since(start)
	}

	// ---- Step 2: broadcast parameters ---------------------------------
	// The paper broadcasts the string parameter lengths first, then the
	// strings, then the scalar options into a statically allocated
	// buffer.  The ScalarParams ablation (future-work item 3) sends one
	// scalar vector instead.
	start := time.Now()
	cfg = broadcastParams(c, cfg)
	// ---- Step 3: global sum to synchronise allocation -----------------
	ready := mpi.Allreduce(c, []int64{1}, mpi.SumInt64)
	if ready[0] != int64(c.Size()) {
		return nil, fmt.Errorf("core: allocation sync saw %d of %d ranks", ready[0], c.Size())
	}
	if master {
		prof.BroadcastParams = time.Since(start)
	}

	// ---- Step 4a: create data ------------------------------------------
	// Broadcast class labels and the cleaned matrix, then build the
	// per-rank preparation (rank transforms, observed statistics, order).
	// The matrix travels as ONE contiguous buffer plus its dimensions —
	// a single broadcast where the slice-of-slices form needed a payload
	// per row header on a real interconnect.  This is the allocation the
	// paper's "create data" section times.
	start = time.Now()
	classlabel = mpi.Bcast(c, 0, classlabel)
	x = mpi.Bcast(c, 0, x)
	design, err := stat.NewDesign(cfg.test, classlabel)
	if err != nil {
		return nil, err
	}
	prep, err := maxt.NewPrepMatrix(x, design, cfg.side, cfg.nonpara)
	if err != nil {
		return nil, err
	}
	useComplete, totalB, err := planPermutations(cfg, design)
	if err != nil {
		return nil, err
	}
	if master {
		prof.CreateData = time.Since(start)
	}

	// ---- Step 4b: main kernel ------------------------------------------
	// Each rank derives its chunk (boundaries aligned to whole kernel
	// batches), forwards its generator to the chunk's first permutation
	// (Figure 2) and accumulates local counts in permutation batches.
	start = time.Now()
	lo, hi := ChunkAligned(totalB, c.Size(), c.Rank(), DefaultBatchSize)
	var gen perm.Generator
	switch {
	case useComplete:
		// Every rank builds the same generator, so the enumeration order
		// (and with it the delta fast path) is identical across ranks.
		// The paper path enumerates every labelling, never folded: it is
		// the independent statement a folded plan is checked against.
		gen, err = completeGen(design)
		if err != nil {
			return nil, err
		}
	case cfg.fixedSeed:
		gen = perm.NewRandom(design, cfg.seed, totalB)
	default:
		gen = perm.NewStored(design, cfg.seed, totalB, lo, hi)
	}
	counts := maxt.NewCounts(prep.Rows())
	maxt.ProcessBatched(prep, gen, lo, hi, counts, nil, DefaultBatchSize)
	kernel := time.Since(start)
	if master {
		prof.MainKernel = kernel
	}
	kernelMax := mpi.Allreduce(c, []int64{int64(kernel)}, maxInt64Op)

	// ---- Step 5: gather observations, compute p-values ------------------
	start = time.Now()
	raw, _ := mpi.Reduce(c, 0, counts.Raw, mpi.SumInt64)
	adj, _ := mpi.Reduce(c, 0, counts.Adj, mpi.SumInt64)
	bTot, _ := mpi.Reduce(c, 0, []int64{counts.B}, mpi.SumInt64)
	if !master {
		// ---- Step 6: free ----
		// Dynamically allocated memory is garbage collected; nothing to
		// return on workers.
		return nil, nil
	}
	merged := &maxt.Counts{Raw: raw, Adj: adj, B: bTot[0]}
	if merged.B != totalB {
		return nil, fmt.Errorf("core: reduced permutation count %d, want %d", merged.B, totalB)
	}
	final := maxt.Finalize(prep, merged)
	prof.ComputePValues = time.Since(start)

	return &Result{
		Stat:      final.Stat,
		RawP:      final.RawP,
		AdjP:      final.AdjP,
		Order:     final.Order,
		B:         final.B,
		Complete:  useComplete,
		NProcs:    c.Size(),
		Profile:   prof,
		KernelMax: time.Duration(kernelMax[0]),
	}, nil
}

// broadcastParams performs the Step 2 wire protocol and returns the
// resulting config on every rank.  Only the master knows the options at
// entry, so the protocol choice itself travels first.
func broadcastParams(c *mpi.Comm, cfg config) config {
	scalarProto := mpi.Bcast(c, 0, cfg.scalarParams)
	if scalarProto {
		// Ablation (future-work item 3): one scalar vector carries
		// everything.
		scal := mpi.Bcast(c, 0, cfg.toScalars())
		return configFromScalars(scal)
	}
	// Paper protocol: string lengths first, then concatenated strings,
	// then the scalar options.
	var msg paramsMsg
	if c.Rank() == 0 {
		test := cfg.test.String()
		side := cfg.side.String()
		fss := boolToYN(cfg.fixedSeed)
		np := boolToYN(cfg.nonpara)
		msg.strLens = []int{len(test), len(side), len(fss), len(np)}
		msg.strs = []byte(test + side + fss + np)
		msg.scalars = []int64{cfg.b, int64(cfg.seed), cfg.maxComplete}
	}
	lens := mpi.Bcast(c, 0, msg.strLens)
	strs := mpi.Bcast(c, 0, msg.strs)
	scal := mpi.Bcast(c, 0, msg.scalars)
	// Decode on every rank (the master decodes its own broadcast too,
	// which keeps all ranks on the identical code path).
	pos := 0
	next := func(n int) string { s := string(strs[pos : pos+n]); pos += n; return s }
	test, _ := stat.ParseTest(next(lens[0]))
	side, _ := maxt.ParseSide(next(lens[1]))
	fixed := next(lens[2]) == "y"
	nonpara := next(lens[3]) == "y"
	return config{
		test: test, side: side, fixedSeed: fixed, nonpara: nonpara,
		b: scal[0], seed: uint64(scal[1]), maxComplete: scal[2],
	}
}

// toScalars encodes the config as the scalar vector of the future-work
// ablation.
func (cfg config) toScalars() []int64 {
	return []int64{
		int64(cfg.test), int64(cfg.side), boolToInt64(cfg.fixedSeed),
		boolToInt64(cfg.nonpara), cfg.b, int64(cfg.seed), cfg.maxComplete,
		boolToInt64(cfg.scalarParams),
	}
}

func configFromScalars(s []int64) config {
	return config{
		test:         stat.Test(s[0]),
		side:         maxt.Side(s[1]),
		fixedSeed:    s[2] != 0,
		nonpara:      s[3] != 0,
		b:            s[4],
		seed:         uint64(s[5]),
		maxComplete:  s[6],
		scalarParams: s[7] != 0,
	}
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func boolToYN(b bool) string {
	if b {
		return "y"
	}
	return "n"
}

func maxInt64Op(acc, in []int64) []int64 {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
	return acc
}

// PMaxTMatrix runs the parallel permutation testing function on nprocs
// goroutine ranks: the Go counterpart of
//
//	mpiexec -n nprocs R -f script_using_pmaxT.R
//
// x is not modified.  Results are bit-identical to the service engine's
// (RunMatrix) for every option combination and any nprocs.  nprocs <= 0
// selects runtime.GOMAXPROCS(0): every available CPU.
func PMaxTMatrix(x matrix.Matrix, classlabel []int, nprocs int, opt Options) (*Result, error) {
	if nprocs <= 0 {
		nprocs = runtime.GOMAXPROCS(0)
	}
	var res *Result
	err := sprintfw.Run(nprocs, Registry(), func(s *sprintfw.Session) error {
		out, err := s.Call(FunctionName, &job{x: x, classlabel: classlabel, opt: opt})
		if err != nil {
			return err
		}
		res = out.(*Result)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
