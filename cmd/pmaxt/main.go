// Command pmaxt runs the parallel permutation testing function on a CSV
// dataset: the command-line counterpart of calling pmaxT from an R script
// under mpiexec.  All flags mirror the R parameters.
//
// Usage:
//
//	datagen -paper -out paper.csv
//	pmaxt -data paper.csv -np 8 -B 150000 -test t -side abs
//	pmaxt -data paper.csv -np 4 -B 0          # complete enumeration
//	pmaxt -data paper.csv -serial -B 10000    # the mt.maxT baseline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sprint"
	"sprint/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmaxt:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pmaxt", flag.ContinueOnError)
	dataPath := fs.String("data", "", "input dataset: CSV, or binary .spb (required; see cmd/datagen)")
	np := fs.Int("np", 0, "number of parallel processes (goroutine ranks); 0 = all CPUs (GOMAXPROCS)")
	serial := fs.Bool("serial", false, "run the serial mt.maxT baseline instead of pmaxT")
	test := fs.String("test", "t", "statistic: t, t.equalvar, wilcoxon, f, pairt, blockf")
	side := fs.String("side", "abs", "rejection region: abs, upper, lower")
	b := fs.Int64("B", 10000, "permutation count (0 = complete enumeration)")
	fss := fs.String("fixed.seed.sampling", "y", "y = on-the-fly generator, n = store permutations in memory")
	nonpara := fs.String("nonpara", "n", "y = rank-transform the data first")
	na := fs.Float64("na", sprint.DefaultNA, "missing value code")
	seed := fs.Uint64("seed", 0, "permutation RNG seed")
	kernel := fs.String("kernel", "auto", "accumulation kernel: auto, generic, avx2 (results are identical on all)")
	mode := fs.String("mode", "exact", "run mode: exact (fixed B, bit-reproducible) or sequential (adaptive early stopping)")
	seqAlpha := fs.Float64("seq-alpha", 0, "sequential mode: significance level the stopping rule certifies decisions at (0 = default 0.05)")
	seqTol := fs.Float64("seq-tolerance", 0, "sequential mode: p-value half-width a row must reach before freezing (0 = default 0.02)")
	top := fs.Int("top", 20, "number of most significant genes to print")
	profile := fs.Bool("profile", true, "print the five-section time profile")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -data")
	}
	if _, err := sprint.SetKernel(*kernel); err != nil {
		return err
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			mf, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pmaxt: memprofile:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // materialise final live-heap statistics
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "pmaxt: memprofile:", err)
			}
		}()
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var data *sprint.Dataset
	if strings.HasSuffix(*dataPath, ".spb") {
		data, err = sprint.ReadDatasetSPB(f)
	} else {
		data, err = sprint.ReadDatasetCSV(f)
	}
	if err != nil {
		return err
	}

	opt := sprint.Options{
		Test: *test, Side: *side, FixedSeedSampling: *fss,
		B: *b, NA: *na, Nonpara: *nonpara, Seed: *seed,
		Mode: *mode, SeqAlpha: *seqAlpha, SeqTolerance: *seqTol,
	}
	var res *sprint.Result
	switch {
	case *serial:
		res, err = sprint.MaxT(data.X, data.Labels, opt)
	case *mode == sprint.ModeSequential:
		// The MPI-style collective computes fixed shards; sequential runs
		// need the supervised window loop so the stopping rule can act
		// between windows.  Same parallel kernel, same rank chunking.
		res, err = sprint.Run(data.X, data.Labels, opt, sprint.RunControl{NProcs: *np})
	default:
		res, err = sprint.PMaxT(data.X, data.Labels, *np, opt)
	}
	if err != nil {
		return err
	}

	label := "pmaxT"
	if *serial {
		label = "mt.maxT (serial)"
	}
	fmt.Fprintf(stdout, "%s: %d x %d dataset, %d permutations (complete: %v), %d process(es), kernel %s\n",
		label, data.Rows(), data.Cols(), res.B, res.Complete, res.NProcs, sprint.KernelName())
	if res.Sequential() {
		fmt.Fprintf(stdout, "sequential: planned B %d, ran %d; %d of %d rows stopped early; %d row-permutation evaluations saved\n",
			res.PlannedB, res.B, res.SeqRowsStopped(), data.Rows(), res.SeqPermsSaved())
	}
	fmt.Fprintln(stdout)

	if err := report.PValueTable(stdout, data.GeneNames, res.Stat, res.RawP, res.AdjP, res.Order, *top); err != nil {
		return err
	}

	if *profile {
		p := res.Profile
		fmt.Fprintf(stdout, "\nprofile (master):\n")
		fmt.Fprintf(stdout, "  pre processing       %12.6fs\n", p.PreProcessing.Seconds())
		fmt.Fprintf(stdout, "  broadcast parameters %12.6fs\n", p.BroadcastParams.Seconds())
		fmt.Fprintf(stdout, "  create data          %12.6fs\n", p.CreateData.Seconds())
		fmt.Fprintf(stdout, "  main kernel          %12.6fs (max across ranks %.6fs)\n",
			p.MainKernel.Seconds(), res.KernelMax.Seconds())
		fmt.Fprintf(stdout, "  compute p-values     %12.6fs\n", p.ComputePValues.Seconds())
		fmt.Fprintf(stdout, "  total                %12.6fs\n", p.Total().Seconds())
	}
	return nil
}
