package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprint/internal/core"
	"sprint/internal/httpapi"
)

// This file runs one workload against real pmaxtd processes: set-up
// (repeated, timed), the closed-loop timed phase, and the harvest of
// everything observable from outside the daemons.

// runConfig is what every workload of one invocation shares.
type runConfig struct {
	bin     string  // the built pmaxtd
	tmpRoot string  // per-run trees are created under it
	seed    uint64  // drives every generated input
	seconds float64 // length of the timed phase
	// timeSetup makes set-up a measurement: it is repeated before and
	// after the timed phase (see maxSetups).  Off, set-up runs once.
	timeSetup bool
	fleet     *fleet
	hc        *http.Client
	logf      func(format string, args ...any)
}

// The timed phase is cut into at most maxWindows windows of equally many
// finished ops, and op time, throughput and CPU cost are each reported
// as the quietQuantile of the windows' values, counted from the good
// end.  The host is shared: a neighbour taking it only ever adds time,
// to the windows it overlaps, whereas a change in the program moves
// every window — so the windows the neighbour left alone read the
// program, and a median, over ops or over windows, reads the neighbour
// as soon as it is busy about half the time.  Set-up time is read the
// same way from the set-ups of a run.  (README, "Windows and the quiet
// decile", has the traces this was chosen on.)
const (
	maxWindows    = 15
	quietQuantile = 0.10
)

// A measured set-up is repeated on each side of the timed phase, seconds
// apart so that one burst of the neighbour's cannot cover them all: on
// each side again and again, up to maxSetups times, until setupBudget has
// been spent — so a set-up of a tenth of a second is sampled eight times
// in a run and one of two seconds twice.
const (
	maxSetups   = 4
	setupBudget = 1500 * time.Millisecond
)

// exactOps is how many of the first timed ops feed the metrics that must
// repeat exactly for a fixed seed: the timed phase is bounded by the
// clock, so its op count varies, but its first ops do not.
const exactOps = 3

// opRecord is what one timed op contributed.
type opRecord struct {
	index       int
	ms          float64
	submitMS    float64
	resultMS    float64
	tailMS      float64 // last result byte − finished_at
	queueWaitMS float64 // started_at − submitted_at
	runMS       float64 // finished_at − started_at
	polls       int
	profile     httpapi.ProfileJSON
	rowPerms    float64 // (row, permutation) evaluations the result rests on
	digest      string
	// Sequential-mode facts from the result document; zero otherwise.
	medianBEff  float64
	rowsStopped float64
	savedShare  float64
}

// mark is the clock and the daemons' CPU time at the moment a timed op
// finished, and how long that op took (the first mark is the start of
// the timed phase and carries no op).
type mark struct {
	at  time.Time
	cpu float64 // Σ over daemons, seconds
	ms  float64
}

// topology is the daemons of one set-up: jobs go to entry.
type topology struct {
	dir     string
	entry   *daemon
	daemons []*daemon // entry first
	client  *client
	dataset string // id of the registered dataset; "" on ingest workloads
}

// cpuSeconds sums the daemons' CPU time so far.
func (t *topology) cpuSeconds() (float64, error) {
	var sum float64
	for _, d := range t.daemons {
		cpu, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += cpu
	}
	return sum, nil
}

func (t *topology) stop() {
	for _, d := range t.daemons {
		d.kill()
	}
}

// startTopology spawns the workload's daemons under dir and waits until
// each is ready.
func startTopology(ctx context.Context, cfg *runConfig, w *workload, dir string) (*topology, error) {
	t := &topology{dir: dir}
	if w.cluster {
		var urls []string
		for i := 1; i <= 2; i++ {
			d, err := cfg.fleet.spawn(ctx, cfg.bin, filepath.Join(dir, fmt.Sprintf("worker%d", i)), "-role", "worker")
			if err != nil {
				t.stop()
				return nil, err
			}
			t.daemons = append(t.daemons, d)
			urls = append(urls, d.url)
		}
		d, err := cfg.fleet.spawn(ctx, cfg.bin, filepath.Join(dir, "coordinator"),
			"-role", "coordinator", "-cluster-workers", strings.Join(urls, ","))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.daemons = append([]*daemon{d}, t.daemons...)
	} else {
		d, err := cfg.fleet.spawn(ctx, cfg.bin, filepath.Join(dir, "standalone"))
		if err != nil {
			return nil, err
		}
		t.daemons = []*daemon{d}
	}
	t.entry = t.daemons[0]
	t.client = &client{hc: cfg.hc, base: t.entry.url, poll: w.poll}
	for _, d := range t.daemons {
		if err := d.waitReady(ctx, cfg.hc); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

// runOp performs op i of the workload and checks its output.  The body is
// prepared before the op's clock starts.
func runOp(ctx context.Context, t *topology, in *inputs, i int, parent spanID) (*outcome, error) {
	var body []byte
	var err error
	if in.w.kind == opIngestJSON {
		body, err = in.flatJobBody(i)
	} else {
		body, err = in.datasetJobBody(t.dataset, i)
	}
	if err != nil {
		return nil, err
	}
	out, err := t.client.runJob(ctx, body, parent, i)
	if err != nil {
		return nil, err
	}
	if err := checkStructure(in.w, &out.result); err != nil {
		return nil, fmt.Errorf("job %s: %w", out.status.ID, err)
	}
	return out, nil
}

// setUp brings one topology from nothing to "warm-up verified": spawn,
// readyz, dataset registered, warm-up job(s) run and checked.  It
// returns the topology and how long that took.
func setUp(ctx context.Context, cfg *runConfig, in *inputs, ref *core.Result, dir string) (*topology, time.Duration, error) {
	start := time.Now()
	t, err := startTopology(ctx, cfg, in.w, dir)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*topology, time.Duration, error) {
		t.stop()
		return nil, 0, err
	}
	if in.w.kind == opDatasetJob {
		if t.dataset, err = t.client.putDataset(ctx, in.spb); err != nil {
			return fail(fmt.Errorf("registering the dataset: %w", err))
		}
	}
	for i := 0; i < in.w.warmups; i++ {
		out, err := runOp(ctx, t, in, i, 0)
		if err != nil {
			return fail(fmt.Errorf("warm-up job %d: %w", i, err))
		}
		if i == 0 {
			if err := checkBitwise(&out.result, ref); err != nil {
				return fail(fmt.Errorf("warm-up job %s: %w", out.status.ID, err))
			}
		}
	}
	return t, time.Since(start), nil
}

// snapshot is the outside view of a topology at one instant.
type snapshot struct {
	metrics []map[string]float64 // per daemon, /metrics summed over labels
	cpu     []float64            // per daemon, utime+stime seconds
}

func takeSnapshot(ctx context.Context, cfg *runConfig, t *topology) (*snapshot, error) {
	s := &snapshot{}
	for _, d := range t.daemons {
		c := &client{hc: cfg.hc, base: d.url}
		m, err := c.scrape(ctx)
		if err != nil {
			return nil, err
		}
		cpu, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		s.metrics = append(s.metrics, m)
		s.cpu = append(s.cpu, cpu)
	}
	return s, nil
}

// delta sums a metric's growth between two snapshots over all daemons.
func delta(before, after *snapshot, name string) float64 {
	var d float64
	for i := range after.metrics {
		d += after.metrics[i][name] - before.metrics[i][name]
	}
	return d
}

// journalMeter adds up the bytes appended to one journal file.  The file
// shrinks when the journal compacts, so growth is summed sample by
// sample and a shrink contributes nothing.
type journalMeter struct {
	mu    sync.Mutex
	path  string
	last  int64
	total int64
}

func (j *journalMeter) sample() {
	info, err := os.Stat(j.path)
	if err != nil {
		return // not created yet, or mid-rename during a compaction
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if sz := info.Size(); sz > j.last {
		j.total += sz - j.last
		j.last = sz
	} else {
		j.last = sz
	}
}

// workloadResult is one workload's section of the output document.
type workloadResult struct {
	Name         string                 `json:"name"`
	Clients      int                    `json:"clients"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Correct      bool                   `json:"correct"`
	Failures     []string               `json:"failures,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	// Info carries what is reported but never gated: harness-only
	// preparation time, the timed phase's wall time, kept directories.
	Info map[string]float64 `json:"info"`
	Kept string             `json:"kept_dir,omitempty"`

	digests map[int]string // result digest by job index
	isa     string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing; 0 for counts and ratios.
	N int `json:"n,omitempty"`
}

// runWorkload sets the workload up (repeatedly when set-up is measured),
// runs the timed phase and returns the workload's metrics.  With tr
// non-nil it also records the client loop's spans.  An error means the
// workload could not be run at all; failed ops are counted in the result
// instead.
func runWorkload(ctx context.Context, cfg *runConfig, w *workload, tr *tracer) (*workloadResult, *inputs, error) {
	res := &workloadResult{Name: w.name, Clients: w.nClients(), Info: map[string]float64{}, digests: map[int]string{}}

	prepStart := time.Now()
	in, err := newInputs(w, cfg.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	ref, err := reference(in, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("computing the reference: %w", err)
	}
	res.Info["harness_prep_s"] = time.Since(prepStart).Seconds()

	dir, err := os.MkdirTemp(cfg.tmpRoot, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	// fail reports a workload that could not be measured; its trees stay.
	fail := func(err error) (*workloadResult, *inputs, error) {
		res.Kept = dir
		return res, in, err
	}
	// setUps performs the set-ups of one side of the timed phase and
	// returns the last topology, still running; the others are stopped
	// and their trees removed.
	var setupS []float64
	setUps := func(atLeast, atMost int) (*topology, error) {
		var t *topology
		var spent time.Duration
		for n := 0; n < atLeast || (n < atMost && spent < setupBudget); n++ {
			if t != nil {
				t.stop()
				_ = os.RemoveAll(t.dir) // scratch of a finished set-up repeat
			}
			var took time.Duration
			sub := filepath.Join(dir, fmt.Sprintf("setup%d", len(setupS)))
			if t, took, err = setUp(ctx, cfg, in, ref, sub); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", len(setupS), err)
			}
			setupS = append(setupS, took.Seconds())
			spent += took
		}
		return t, nil
	}
	atMost := 1
	if cfg.timeSetup {
		atMost = maxSetups
	}
	t, err := setUps(1, atMost)
	if err != nil {
		return fail(err)
	}
	defer t.stop()
	res.isa = t.entry.isa
	t.client.tr = tr

	before, err := takeSnapshot(ctx, cfg, t)
	if err != nil {
		return fail(fmt.Errorf("snapshot before the timed phase: %w", err))
	}
	jm := &journalMeter{path: filepath.Join(t.entry.dir, "journal", "journal.log")}
	jm.sample()
	jm.total = 0

	// Closed loop: every client waits for its reply before sending the
	// next job, and starts no job after the deadline.
	var (
		mu      sync.Mutex
		records []opRecord
		marks   []mark
		next    atomic.Int64
	)
	next.Store(int64(w.warmups))
	cpu0, err := t.cpuSeconds()
	if err != nil {
		return fail(err)
	}
	phaseStart := time.Now()
	marks = append(marks, mark{at: phaseStart, cpu: cpu0})
	deadline := phaseStart.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < res.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				root := tr.open("client.op", 0, i)
				out, err := runOp(ctx, t, in, i, root)
				tr.close(root)
				jm.sample()
				mu.Lock() // marks are taken under mu, so they stay in time order
				var cpu float64
				if err == nil {
					cpu, err = t.cpuSeconds()
				}
				res.OpsAttempted++
				if err != nil {
					res.OpsFailed++
					if len(res.Failures) < 5 {
						res.Failures = append(res.Failures, fmt.Sprintf("op %d: %v", i, err))
					}
				} else {
					records = append(records, newOpRecord(w, i, out))
					marks = append(marks, mark{time.Now(), cpu, out.ms()})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	phaseWall := time.Since(phaseStart).Seconds()

	after, err := takeSnapshot(ctx, cfg, t)
	if err != nil {
		return fail(fmt.Errorf("snapshot after the timed phase: %w", err))
	}
	var rss float64
	for _, d := range t.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return fail(err)
		}
		rss += mb
	}
	tree := treeBytes(t.dir)

	sort.Slice(records, func(a, b int) bool { return records[a].index < records[b].index })
	for _, r := range records {
		res.digests[r.index] = r.digest
	}
	res.Correct = res.OpsFailed == 0 && len(records) > 0
	res.Info["timed_s"] = phaseWall
	if !res.Correct {
		res.Kept = dir
	} else {
		t.stop()
		if cfg.timeSetup {
			// The other half of the set-up measurement: as many again.
			again, err := setUps(len(setupS), len(setupS))
			if err != nil {
				return fail(err)
			}
			again.stop()
		}
		_ = os.RemoveAll(dir) // best effort: a leftover tree only costs disk
	}
	if len(records) > 0 {
		res.EndToEnd = endToEnd(setupS, marks, rss)
		res.PerLayer = harvest(records, before, after, float64(jm.total), float64(tree))
	}
	return res, in, nil
}

// newOpRecord distils one finished op.
func newOpRecord(w *workload, i int, out *outcome) opRecord {
	r := opRecord{
		index: i, ms: out.ms(), submitMS: out.submitMS, resultMS: out.resultMS,
		polls: out.polls, digest: resultDigest(&out.result),
	}
	st := out.status
	if st.Profile != nil {
		r.profile = *st.Profile
	}
	r.queueWaitMS, _ = stampDiffMS(st.SubmittedAt, st.StartedAt)
	r.runMS, _ = stampDiffMS(st.StartedAt, st.FinishedAt)
	if fin, err := time.Parse(time.RFC3339Nano, st.FinishedAt); err == nil {
		r.tailMS = out.end.Sub(fin).Seconds() * 1000
	}
	res := &out.result
	r.rowPerms = float64(res.B) * float64(w.rows)
	if res.Mode == core.ModeSequential && res.PlannedB > 0 {
		var beff []float64
		for _, b := range res.BEffective {
			if b > 0 {
				beff = append(beff, float64(b))
				if b < res.PlannedB {
					r.rowsStopped++
				}
			}
		}
		r.medianBEff = median(beff)
		r.savedShare = float64(res.PermsSaved) / (float64(res.PlannedB) * float64(len(beff)))
		r.rowPerms = float64(res.PlannedB)*float64(len(beff)) - float64(res.PermsSaved)
	}
	return r
}

func column(records []opRecord, f func(*opRecord) float64) []float64 {
	out := make([]float64, len(records))
	for i := range records {
		out[i] = f(&records[i])
	}
	return out
}

// windows cuts the timed phase into at most maxWindows windows of
// (nearly) equally many finished ops — marks[0] is the phase's start,
// every later mark one finished op in the order they were recorded — and
// returns each window's median op time, its seconds per finished op (the
// inverse of its throughput) and its CPU seconds per op.
func windows(marks []mark) (ms, sPerOp, cpuPerOp []float64) {
	n := len(marks) - 1
	k := min(n, maxWindows)
	for j, lo := 0, 0; j < k; j++ {
		hi := (j + 1) * n / k
		ops := float64(hi - lo)
		var took []float64
		for _, m := range marks[lo+1 : hi+1] {
			took = append(took, m.ms)
		}
		ms = append(ms, median(took))
		sPerOp = append(sPerOp, marks[hi].at.Sub(marks[lo].at).Seconds()/ops)
		cpuPerOp = append(cpuPerOp, (marks[hi].cpu-marks[lo].cpu)/ops)
		lo = hi
	}
	return ms, sPerOp, cpuPerOp
}

// quiet reads a cost from samples the shared host disturbed to different
// degrees: their quietQuantile, lower being better.
func quiet(samples []float64) float64 {
	v, _ := quantile(samples, quietQuantile)
	return v
}

// endToEnd computes the metrics a user of the service would see.
func endToEnd(setupS []float64, marks []mark, rssMB float64) map[string]metricValue {
	n := len(marks) - 1
	ms, sPerOp, cpuPerOp := windows(marks)
	return map[string]metricValue{
		"setup_s":       {Value: quiet(setupS), Unit: "s", N: len(setupS)},
		"job_ms_p50":    {Value: quiet(ms), Unit: "ms", N: n},
		"jobs_per_s":    {Value: 1 / quiet(sPerOp), Unit: "1/s", N: n},
		"cpu_s_per_job": {Value: quiet(cpuPerOp), Unit: "s", N: n},
		"peak_rss_mb":   {Value: rssMB, Unit: "MB"},
	}
}
