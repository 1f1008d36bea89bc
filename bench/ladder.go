package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/jobs"
	"sprint/internal/matrix"
	"sprint/internal/maxt"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// This file is the traced run's layer ladder (source B in the README).
// It measures each layer from outside by entering the SAME job at each
// layer's public API, in-process and at one rank: perm → stat → maxt →
// core → jobs → httpapi → cluster.  A layer's self time is its rung
// minus the next inner rung, so the selves telescope to the outermost
// rung and the where-the-time-goes table sums to its total by
// construction.  End-to-end metrics are never taken from here.

const (
	// The ladder is climbed at least minClimbs times, each time with a
	// job of its own, and each rung reports its median.  Short jobs are
	// millisecond measurements that three samples do not settle, so
	// climbing goes on until climbBudget has been spent or maxClimbs made.
	minClimbs   = 3
	maxClimbs   = 15
	climbBudget = 2 * time.Second
	// ladderBase offsets the ladder's job indices past any index the
	// daemon phase can reach, so the ladder's jobs are jobs of their own.
	ladderBase = 1 << 20
	// ladderBatch is the engine's default permutation batch
	// (core.DefaultBatchSize), which the inner rungs reproduce.
	ladderBatch = core.DefaultBatchSize
)

// daemonJobsConfig is the jobs.Config pmaxtd builds from its default
// flags plus -journal-dir dir, at one rank per job.
func daemonJobsConfig(dir string) jobs.Config {
	return jobs.Config{
		DefaultNProcs: 1,
		JournalDir:    dir,
		CheckpointDir: filepath.Join(dir, "checkpoints"),
		DatasetDir:    filepath.Join(dir, "datasets"),
	}
}

// rungs collects every rung's duration by span name, one entry per
// repeat, and how many permutations each repeat's job processed.
type rungs struct {
	tr    *tracer
	root  spanID
	op    int
	d     map[string][]float64
	perms []float64
}

// time runs f inside a span named name and records its duration.
func (r *rungs) time(name string, f func() error) error {
	id := r.tr.open(name, r.root, r.op)
	err := f()
	took := r.tr.close(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.d[name] = append(r.d[name], took.Seconds())
	return nil
}

// at returns the named rung's median over the repeats; 0 for a rung the
// workload never climbed.  The repeats of an exact workload all process
// B permutations, but a sequential job stops where its seed lets it, so
// the median is taken per permutation and scaled to the median job:
// rung differences are then differences between layers, not between
// jobs of different length.
func (r *rungs) at(name string) float64 {
	d := r.d[name]
	if len(d) != len(r.perms) {
		return 0
	}
	per := make([]float64, len(d))
	for i := range d {
		per[i] = d[i] / r.perms[i]
	}
	return median(per) * median(r.perms)
}

// runLadder climbs the ladder (see minClimbs) for the workload and
// returns the source-B layer metrics.
func runLadder(ctx context.Context, cfg *runConfig, in *inputs, tr *tracer) (map[string]metricValue, error) {
	w := in.w
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.name+"-ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The service rungs keep one manager, one HTTP server and (for the
	// cluster workload) one in-process cluster alive across repeats, as a
	// daemon would; the dataset workloads register the matrix and warm
	// the prep once, outside every span.
	mgr, err := jobs.NewManager(daemonJobsConfig(filepath.Join(dir, "jobs")))
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	srv, err := httpapi.New(httpapi.Config{Jobs: daemonJobsConfig(filepath.Join(dir, "httpapi"))})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	httpTop := &topology{client: &client{hc: hc, base: ts.URL, poll: w.poll, tr: tr}}

	var clusterTop *topology
	if w.cluster {
		cl, err := newLocalCluster(filepath.Join(dir, "cluster"))
		if err != nil {
			return nil, err
		}
		defer cl.close()
		clusterTop = &topology{client: &client{hc: hc, base: cl.url, poll: w.poll, tr: tr}}
	}

	var mgrDataset string
	if w.kind == opDatasetJob {
		info, _, err := mgr.PutDataset(in.x.Clone())
		if err != nil {
			return nil, err
		}
		mgrDataset = info.ID
		if _, err := submitAndWait(ctx, mgr, jobs.Spec{DatasetID: mgrDataset, Labels: in.jobLabels(0), Opt: in.coreOptions(0)}); err != nil {
			return nil, fmt.Errorf("jobs rung warm-up: %w", err)
		}
		for _, t := range []*topology{httpTop, clusterTop} {
			if t == nil {
				continue
			}
			if t.dataset, err = t.client.putDataset(ctx, in.spb); err != nil {
				return nil, err
			}
			if _, err := runOp(ctx, t, in, 0, 0); err != nil {
				return nil, fmt.Errorf("service rung warm-up: %w", err)
			}
		}
	}

	r := &rungs{tr: tr, d: map[string][]float64{}}
	started := time.Now()
	for rep := 0; rep < minClimbs || (rep < maxClimbs && time.Since(started) < climbBudget); rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := ladderBase + rep
		r.op = i
		r.root = tr.open("ladder", 0, i)
		n, err := climb(ctx, r, in, i, mgr, mgrDataset, httpTop, clusterTop)
		tr.close(r.root)
		if err != nil {
			return nil, err
		}
		r.perms = append(r.perms, float64(n))
	}

	// Derived numbers.  Cold-prep workloads pay core.Prepare inside every
	// job, so there the jobs rung sits on top of prepare + run.
	permsRun := median(r.perms)
	kernel, labels := r.at("stat.kernel"), r.at("perm.labels")
	process, run, prepare := r.at("maxt.process"), r.at("core.run"), r.at("core.prepare")
	job, httpJob := r.at("jobs.job"), r.at("httpapi.job")
	inner := run
	if w.coldPrep {
		inner += prepare
	}
	cells := float64(w.rows) * float64(w.cols)
	sec := func(v float64) metricValue { return metricValue{Value: v, Unit: "s", N: len(r.perms)} }
	m := map[string]metricValue{
		"stat.kernel_s":         sec(kernel),
		"stat.cell_perms_per_s": {Value: cells * permsRun / kernel, Unit: "1/s"},
		"stat.bytes_per_perm":   {Value: cells * 8, Unit: "B"},
		"perm.labels_s":         sec(labels),
		"perm.labels_per_s":     {Value: permsRun / labels, Unit: "1/s"},
		"maxt.process_s":        sec(process),
		"maxt.self_s":           sec(process - kernel - labels),
		"maxt.finalize_s":       sec(r.at("maxt.finalize")),
		"core.prepare_s":        sec(prepare),
		"core.run_s":            sec(run),
		"core.self_s":           sec(run - process),
		"jobs.job_s":            sec(job),
		"jobs.self_s":           sec(job - inner),
		"httpapi.job_s":         sec(httpJob),
		"httpapi.self_s":        sec(httpJob - job),
	}
	if w.cluster {
		cj := r.at("cluster.job")
		m["cluster.job_s"] = sec(cj)
		m["cluster.self_s"] = sec(cj - httpJob)
	}
	for span, name := range map[string]string{
		"httpapi.decode_submit": "httpapi.decode_submit_s",
		"matrix.decode_spb":     "matrix.decode_spb_s",
		"jobs.dataset_digest":   "jobs.dataset_digest_s",
		"jobs.put_dataset":      "jobs.put_dataset_s",
	} {
		if len(r.d[span]) > 0 {
			m[name] = sec(r.at(span))
		}
	}
	if d := r.at("matrix.decode_spb"); d > 0 {
		m["matrix.decode_mb_per_s"] = metricValue{Value: float64(len(in.spb)) / (1 << 20) / d, Unit: "MB/s"}
	}
	return m, nil
}

// climb runs job i once at every rung and returns how many permutations
// the job processed.
func climb(ctx context.Context, r *rungs, in *inputs, i int, mgr *jobs.Manager, mgrDataset string, httpTop, clusterTop *topology) (int64, error) {
	w := in.w
	x := in.x
	if w.kind == opIngestJSON {
		x = in.variantMatrix(i)
	}
	labels, opt := in.jobLabels(i), in.coreOptions(i)

	// core: Prepare, then RunPrepared at one rank under the daemon's
	// default window.
	var prepared *core.Prepared
	var res *core.Result
	err := r.time("core.prepare", func() (err error) {
		prepared, err = core.Prepare(x, labels, opt)
		return err
	})
	if err != nil {
		return 0, err
	}
	err = r.time("core.run", func() (err error) {
		res, err = core.RunPrepared(prepared, opt, core.RunControl{NProcs: 1, Every: seqWindow})
		return err
	})
	if err != nil {
		return 0, err
	}
	// A sequential job stops early: the inner rungs replay the
	// permutations it actually processed, at full matrix width (the
	// engine's row compaction lives in core and is not replayed).
	permsRun := res.B

	// maxt: the prep is built outside the spans (core.prepare covers it).
	test, err := stat.ParseTest(opt.Test)
	if err != nil {
		return 0, err
	}
	side, err := maxt.ParseSide(opt.Side)
	if err != nil {
		return 0, err
	}
	design, err := stat.NewDesign(test, labels)
	if err != nil {
		return 0, err
	}
	prep, err := maxt.NewPrepMatrix(x, design, side, false)
	if err != nil {
		return 0, err
	}
	var gen perm.Generator
	switch {
	case res.Complete && perm.RevolvingDoorOK(design):
		gen, err = perm.NewRevolvingDoor(design)
	case res.Complete:
		gen, err = perm.NewComplete(design)
	default:
		gen = perm.NewRandom(design, opt.Seed, opt.B)
	}
	if err != nil {
		return 0, err
	}
	counts := maxt.NewCounts(prep.Rows())
	scratch := prep.NewScratch()
	_ = r.time("maxt.process", func() error {
		maxt.ProcessBatched(prep, gen, 0, permsRun, counts, scratch, ladderBatch)
		return nil
	})
	_ = r.time("maxt.finalize", func() error {
		maxt.Finalize(prep, counts)
		return nil
	})

	// perm and stat: the generator alone, then the kernel alone on
	// pre-generated labels — by exchanges where the engine would take the
	// delta path, by full labellings elsewhere.
	bk, ok := prep.Kernel.(stat.BatchKernel)
	if !ok {
		return 0, fmt.Errorf("kernel of test %q is not a batch kernel", opt.Test)
	}
	n, rows := design.N, prep.Rows()
	dk, okDK := prep.Kernel.(stat.DeltaKernel)
	dg, okDG := gen.(perm.DeltaGenerator)
	batches := int((permsRun + ladderBatch - 1) / ladderBatch)
	batchLen := func(b int) int { return int(min(int64(ladderBatch), permsRun-int64(b)*ladderBatch)) }
	out := matrix.New(ladderBatch, rows)
	bs := bk.NewBatchScratch(ladderBatch)
	if okDK && okDG && dk.DeltaOK() {
		lab0s := make([]int, batches*n)
		moves := make([]stat.Exchange, batches*ladderBatch)
		_ = r.time("perm.labels", func() error {
			for b := 0; b < batches; b++ {
				nb := batchLen(b)
				dg.LabelsDelta(int64(b)*ladderBatch, int64(nb), lab0s[b*n:(b+1)*n], moves[b*ladderBatch:b*ladderBatch+nb-1])
			}
			return nil
		})
		_ = r.time("stat.kernel", func() error {
			for b := 0; b < batches; b++ {
				nb := batchLen(b)
				o := matrix.Matrix{Data: out.Data[:nb*rows], Rows: nb, Cols: rows}
				dk.StatsDelta(lab0s[b*n:(b+1)*n], moves[b*ladderBatch:b*ladderBatch+nb-1], o, bs)
			}
			return nil
		})
	} else {
		labs := make([]int, int(permsRun)*n)
		_ = r.time("perm.labels", func() error {
			for b := 0; b < batches; b++ {
				lo := b * ladderBatch
				gen.Labels(int64(lo), int64(batchLen(b)), labs[lo*n:(lo+batchLen(b))*n])
			}
			return nil
		})
		_ = r.time("stat.kernel", func() error {
			for b := 0; b < batches; b++ {
				lo, nb := b*ladderBatch, batchLen(b)
				o := matrix.Matrix{Data: out.Data[:nb*rows], Rows: nb, Cols: rows}
				bk.StatsBatch(labs[lo*n:(lo+nb)*n], o, bs)
			}
			return nil
		})
	}

	// jobs: Manager.Submit → done → Result, the daemon's jobs.Config.
	spec := jobs.Spec{Labels: labels, Opt: opt}
	if w.kind == opIngestJSON {
		spec.XFlat, spec.Genes, spec.Samples = matrix.Transpose(x.Data, x.Rows, x.Cols), x.Rows, x.Cols
	} else {
		spec.DatasetID = mgrDataset
	}
	err = r.time("jobs.job", func() error {
		_, err := submitAndWait(ctx, mgr, spec)
		return err
	})
	if err != nil {
		return 0, err
	}

	// httpapi: the daemon phase's client loop against httpapi.Server
	// behind an in-process listener; cluster: the same through an
	// in-process coordinator and two workers.
	err = r.time("httpapi.job", func() error {
		_, err := runOp(ctx, httpTop, in, i, r.root)
		return err
	})
	if err != nil {
		return 0, err
	}
	if clusterTop != nil {
		err = r.time("cluster.job", func() error {
			_, err := runOp(ctx, clusterTop, in, i, r.root)
			return err
		})
		if err != nil {
			return 0, err
		}
	}

	// The pieces of both ingest paths — inline JSON and a .spb upload —
	// each alone.
	if w.kind == opIngestJSON {
		body, err := in.flatJobBody(i)
		if err != nil {
			return 0, err
		}
		err = r.time("httpapi.decode_submit", func() error {
			_, err := httpapi.DecodeSubmit(bytes.NewReader(body))
			return err
		})
		if err != nil {
			return 0, err
		}
		spb := in.variantSPB(i)
		err = r.time("matrix.decode_spb", func() error {
			_, err := matrix.DecodeBytes(spb)
			return err
		})
		if err != nil {
			return 0, err
		}
		_ = r.time("jobs.dataset_digest", func() error {
			jobs.DatasetDigest(x)
			return nil
		})
		// One more never-seen matrix, so the registry cannot deduplicate.
		fresh := in.variantMatrix(i + maxClimbs)
		err = r.time("jobs.put_dataset", func() error {
			_, _, err := mgr.PutDataset(fresh)
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return permsRun, nil
}

// submitAndWait runs one job on a manager and returns its result.
func submitAndWait(ctx context.Context, mgr *jobs.Manager, spec jobs.Spec) (*core.Result, error) {
	st, err := mgr.Submit(spec)
	if err != nil {
		return nil, err
	}
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if st, err = mgr.Get(st.ID); err != nil {
			return nil, err
		}
	}
	if st.State != jobs.Done {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res, _, err := mgr.Result(st.ID)
	return res, err
}

// localCluster is a coordinator and two workers inside this process,
// each the wiring pmaxtd builds for its role, behind real listeners.
type localCluster struct {
	url     string
	closers []func()
}

func (c *localCluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// oneShardAtATime admits a single shard RPC at a time.  The ladder is a
// one-rank measurement: with both workers computing at once the cluster
// rung would do two ranks' work and could not be compared with the
// standalone rung below it.
type oneShardAtATime struct {
	mu   sync.Mutex
	next http.RoundTripper
}

func (t *oneShardAtATime) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, cluster.ShardPath) {
		return t.next.RoundTrip(req)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	// The reply carries the shard's counts: read it whole before the
	// next shard may start.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func newLocalCluster(dir string) (*localCluster, error) {
	c := &localCluster{}
	var urls []string
	for i := 1; i <= 2; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		srv, err := httpapi.New(httpapi.Config{Jobs: daemonJobsConfig(wdir)})
		if err != nil {
			c.close()
			return nil, err
		}
		wk := cluster.NewWorker(cluster.WorkerConfig{Source: srv.Manager(), NProcs: 1, RetentionDir: filepath.Join(wdir, "retained")})
		srv.AttachCluster(wk)
		ts := httptest.NewServer(srv.Handler())
		c.closers = append(c.closers, srv.Close, ts.Close)
		urls = append(urls, ts.URL)
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Workers:         urls,
		Client:          &http.Client{Transport: &oneShardAtATime{next: http.DefaultTransport}},
		ShardsPerWorker: 2,    // pmaxtd's -shards-per-worker default
		MinDistB:        1000, // pmaxtd's -dist-min-b default
		WorkerNProcs:    1,
	})
	cfg := daemonJobsConfig(filepath.Join(dir, "coordinator"))
	cfg.Distributor = coord
	srv, err := httpapi.New(httpapi.Config{Jobs: cfg})
	if err != nil {
		c.close()
		return nil, err
	}
	srv.AttachCluster(coord)
	ts := httptest.NewServer(srv.Handler())
	c.closers = append(c.closers, srv.Close, ts.Close)
	c.url = ts.URL
	return c, nil
}

// printLadder writes the where-the-time-goes table: one row per layer's
// self time, summing to the outermost rung.
func printLadder(f io.Writer, w *workload, m map[string]metricValue) {
	rows := []string{"perm.labels_s", "stat.kernel_s", "maxt.self_s", "core.self_s"}
	if w.coldPrep {
		rows = append(rows, "core.prepare_s")
	}
	rows = append(rows, "jobs.self_s", "httpapi.self_s")
	outer := "httpapi.job_s"
	if w.cluster {
		rows = append(rows, "cluster.self_s")
		outer = "cluster.job_s"
	}
	total := m[outer].Value
	fmt.Fprintf(f, "  where the time goes (one rank, median of %d climbs)\n", m[outer].N)
	var acc float64
	for _, name := range rows {
		v := m[name].Value
		acc += v
		fmt.Fprintf(f, "    %-34s %12.6f s  %6.2f%%\n", name, v, 100*v/total)
	}
	fmt.Fprintf(f, "    %-34s %12.6f s  (outermost rung %s = %.6f s)\n", "sum", acc, outer, total)
}
