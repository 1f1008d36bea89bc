// Command bench is the repository's end-to-end benchmark of pmaxtd: it
// builds the daemon, starts real pmaxtd processes, drives seeded
// workloads over loopback HTTP in a closed loop, checks every output and
// prints each metric by name with its unit.
//
//	go run ./bench                                   # every workload
//	go run ./bench --workload serve_small --seed 7 --seconds 10 --trace 0
//	go run ./bench --workload batch_exact --trace 1  # the traced ladder
//	go run ./bench --compare A.json B.json           # two output documents
//
// One JSON object per workload goes to standard output (correct,
// attempted, failed, metrics), the human-readable tables to standard
// error, and the full document — header, end-to-end and per-layer
// metrics of every workload — to the --out file.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadTimeout bounds one workload — set-up, timed phase and traced
// ladder together.  Past it the daemons are killed and the run fails.
const workloadTimeout = 170 * time.Second

// header records where and how the numbers were taken.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	KernelISA  string  `json:"kernel_isa"`
	DurableFS  string  `json:"durable_fs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Quick      bool    `json:"quick"`
	StartedAt  string  `json:"started_at"`
	BuildS     float64 `json:"build_s"`
}

// document is the full output of one invocation.
type document struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	tmp      string
	quick    bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "comma-separated workload names, or all")
	flag.Uint64Var(&o.seed, "seed", 20100621, "seed of every generated input: dataset, relabellings, job seeds")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of each workload's timed phase")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the full JSON document here (default <root>/.bench_build/out/bench.json); traces go beside it")
	flag.StringVar(&o.tmp, "tmp", "", "directory for the daemons' journal trees (default <root>/.bench_build/run)")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test scale: 200x20 matrices, B=64")
	flag.BoolVar(&o.compare, "compare", false, "compare two output documents: bench --compare A.json B.json")
	flag.Parse()

	if o.compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --compare takes exactly two document paths")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments, or --trace not 0|1, or --seconds not positive")
		os.Exit(2)
	}

	fl := newFleet()
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		fl.killAll()
		os.Exit(130)
	}()
	err := run(ctx, o, fl, os.Stdout, os.Stderr)
	fl.killAll() // nothing the benchmark started may outlive it
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// moduleRoot finds the directory holding module sprint's go.mod, walking
// up from the working directory (the tests run inside bench/).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module sprint\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module sprint at or above the working directory; run from the repository")
		}
		dir = parent
	}
}

// commit names the checked-out revision, or "unknown" outside git.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// run executes the selected workloads and writes every output: one
// result line per workload to stdout, tables and progress to stderr, the
// full document to o.out.
func run(ctx context.Context, o options, fl *fleet, stdout, stderr io.Writer) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	workloads, err := selectWorkloads(catalogue(o.quick), strings.Split(o.workload, ","))
	if err != nil {
		return err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if o.out == "" {
		o.out = filepath.Join(buildDir, "out", "bench.json")
	}
	if o.tmp == "" {
		o.tmp = filepath.Join(buildDir, "run")
	}
	for _, dir := range []string{filepath.Dir(o.out), o.tmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	bin, buildTook, err := buildDaemon(ctx, root, filepath.Join(buildDir, "bin"))
	if err != nil {
		return err
	}

	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	doc := &document{Header: header{
		Commit: commit(root), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DurableFS: fsName(o.tmp), Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Quick: o.quick,
		StartedAt: time.Now().UTC().Format(time.RFC3339), BuildS: buildTook.Seconds(),
	}}
	cfg := &runConfig{
		bin: bin, tmpRoot: o.tmp, seed: o.seed, seconds: o.seconds,
		fleet: fl, hc: newHTTPClient(), logf: logf,
		// Set-up time is an end-to-end metric, which the traced run never
		// reports: there one set-up is enough.
		timeSetup: o.trace == 0,
	}

	digests := map[string]map[int]string{}
	var runErr error
	for _, w := range workloads {
		wctx, cancel := context.WithTimeout(ctx, workloadTimeout)
		res, err := runOne(wctx, cfg, w, o, doc, stderr)
		cancel()
		fl.killAll()
		if err != nil {
			runErr = errors.Join(runErr, fmt.Errorf("%s: %w", w.name, err))
			if res != nil && res.Kept != "" {
				logf("%s: daemon trees and logs kept in %s", w.name, res.Kept)
			}
			continue
		}
		digests[w.name] = res.digests
		doc.Workloads = append(doc.Workloads, res)
	}

	// When both ran, the cluster must have produced batch_exact's bits.
	if a, b := digests["batch_exact"], digests["cluster_exact"]; a != nil && b != nil {
		if err := sameDigests(a, b); err != nil {
			runErr = errors.Join(runErr, fmt.Errorf("cluster_exact vs batch_exact: %w", err))
			for _, r := range doc.Workloads {
				if r.Name == "cluster_exact" {
					r.Correct = false
					r.Failures = append(r.Failures, err.Error())
				}
			}
		}
	}

	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	logf("document: %s", o.out)
	if runErr != nil {
		return runErr
	}
	for _, r := range doc.Workloads {
		if err := printContractLine(stdout, r, o.trace); err != nil {
			return err
		}
	}
	return nil
}

// runOne runs one workload — and, on the traced run, its ladder — and
// prints its table.
func runOne(ctx context.Context, cfg *runConfig, w *workload, o options, doc *document, stderr io.Writer) (*workloadResult, error) {
	cfg.logf("== %s: %s", w.name, w.why)
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	res, in, err := runWorkload(ctx, cfg, w, tr)
	if err != nil {
		return res, err
	}
	if doc.Header.KernelISA == "" {
		doc.Header.KernelISA = res.isa
	}
	if o.trace == 1 {
		rungs, err := runLadder(ctx, cfg, in, tr)
		if err != nil {
			return res, fmt.Errorf("traced ladder: %w", err)
		}
		if res.PerLayer == nil { // every timed op failed: nothing was harvested
			res.PerLayer = map[string]metricValue{}
		}
		for k, v := range rungs {
			res.PerLayer[k] = v
		}
		res.EndToEnd = nil // never taken from the traced run
		path := filepath.Join(filepath.Dir(o.out), "trace_"+w.name+".json")
		if err := tr.write(path); err != nil {
			return res, err
		}
		cfg.logf("trace: %s", path)
		printLadder(stderr, w, res.PerLayer)
	}
	res.PerLayer = completeLayers(res.PerLayer)
	printWorkload(stderr, res)
	return res, nil
}

// sameDigests checks that two workloads produced identical results for
// every job index both ran.
func sameDigests(a, b map[int]string) error {
	common := 0
	for i, da := range a {
		if db, ok := b[i]; ok {
			common++
			if da != db {
				return fmt.Errorf("job %d: result digests differ", i)
			}
		}
	}
	if common == 0 {
		return errors.New("no job index in common")
	}
	return nil
}

// printContractLine writes the one-line result object of a workload:
// exactly the keys correct, attempted, failed and metrics, the metrics
// being every end-to-end metric of an untraced run or every per-layer
// metric of a traced one.
func printContractLine(f io.Writer, r *workloadResult, trace int) error {
	metrics := r.EndToEnd
	if trace == 1 {
		metrics = r.PerLayer
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]wire, len(metrics))
	for k, v := range metrics {
		m[k] = wire{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.OpsAttempted, r.OpsFailed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// printWorkload writes the human-readable table of one workload.
func printWorkload(f io.Writer, r *workloadResult) {
	fmt.Fprintf(f, "%s: %d clients, %d ops attempted, %d failed, correct=%v\n", r.Name, r.Clients, r.OpsAttempted, r.OpsFailed, r.Correct)
	for _, msg := range r.Failures {
		fmt.Fprintf(f, "  FAILED %s\n", msg)
	}
	if r.Kept != "" {
		fmt.Fprintf(f, "  daemon trees and logs kept in %s\n", r.Kept)
	}
	printMetrics := func(title string, specs []metricSpec, m map[string]metricValue) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(f, "  %s\n", title)
		for _, s := range specs {
			v, ok := m[s.Name]
			if !ok || (v.Value == 0 && title != "end to end") {
				continue
			}
			n := ""
			if v.N > 0 {
				n = fmt.Sprintf("  (n=%d)", v.N)
			}
			fmt.Fprintf(f, "    %-34s %14.6g %-6s%s\n", s.Name, v.Value, v.Unit, n)
		}
	}
	printMetrics("end to end", endToEndSpecs, r.EndToEnd)
	printMetrics("per layer (0 = layer not entered, omitted)", perLayerSpecs, r.PerLayer)
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "  info %-29s %14.6g\n", k, r.Info[k])
	}
}
