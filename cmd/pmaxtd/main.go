// Command pmaxtd is the SPRINT permutation-testing job server: a
// long-lived daemon that accepts analyses over a JSON HTTP API, queues
// them under a two-class weighted-fair discipline, runs them on a worker
// pool with per-job rank counts, caches results by content address, and
// checkpoints running jobs so that a cancelled job — or a killed daemon —
// resumes instead of restarting.
//
// Usage:
//
//	pmaxtd -addr :8080 -workers 2 -queue 64 -journal-dir /var/lib/pmaxtd \
//	       -tenant-limits "rate=5,burst=10" -metrics-interval 60s
//
// Submit and poll with curl:
//
//	curl -s -X POST localhost:8080/v1/jobs -H 'X-Tenant: acme' -d '{
//	  "dataset": {"x": [[1,2,3,4],[5,4,3,2]], "labels": [0,0,1,1]},
//	  "options": {"b": 1000, "test": "t"}}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/result
//	curl -s localhost:8080/metrics          # Prometheus text exposition
//
// Cluster mode shards the permutation space of large jobs across
// several daemons (the paper's multi-node Step 4), with results bitwise
// identical to a single node:
//
//	pmaxtd -role worker -addr :8081                       # on each worker host
//	pmaxtd -role coordinator -addr :8080 \
//	       -cluster-workers http://w1:8081,http://w2:8081 # front node
//
// Workers may also join a running coordinator dynamically with
// -join http://coord:8080 (heartbeat registration); -advertise overrides
// the URL the worker registers under.  Jobs are submitted to the
// coordinator exactly as in standalone mode — preferably by dataset_id,
// so no matrix bytes travel on the job path.  A worker computes a shard
// only while the coordinator waits for it: when the shard request ends
// (the coordinator died, gave up, or the job was cancelled or stopped
// early), the compute parks its prefix for a later re-probe.
//
// Operational telemetry goes to stderr as JSON logs (log/slog): one line
// per HTTP request carrying the request id, tenant, route, status and
// duration, plus interval-flushed metrics snapshots.  The human-readable
// lifecycle lines stay on stdout.  SIGINT/SIGTERM shut the daemon down
// gracefully: a worker drains in-flight shards (finishing or shipping a
// checkpointed prefix) and deregisters from its coordinator, the HTTP
// listener drains, running jobs checkpoint and stop, a final metrics
// snapshot is flushed, and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the DefaultServeMux profiles
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sprint/internal/cluster"
	"sprint/internal/core"
	"sprint/internal/faultinject"
	"sprint/internal/httpapi"
	"sprint/internal/jobs"
	"sprint/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "pmaxtd:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	addr, journalDir, pprofAddr, tenantLimits, logDst, faults string
	role, clusterWorkers, join, advertise                     string
	workers, queue, nprocs, shardNProcs, shardsPerWorker      int
	every, maxBody, interactiveB, distMinB                    int64
	metricsInterval, maxQueueWait                             time.Duration
}

// newFlagSet binds every pmaxtd flag to o.  TestFlagsPinned holds the
// list: a new flag is a deliberate, reviewed change.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("pmaxtd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = half the CPUs)")
	fs.IntVar(&o.queue, "queue", 64, "job queue depth; a full queue sheds submissions with 429")
	fs.IntVar(&o.nprocs, "nprocs", 0, "default ranks per job (0 = all CPUs)")
	fs.Int64Var(&o.every, "every", 1000, "default checkpoint window (permutations)")
	fs.StringVar(&o.journalDir, "journal-dir", "", "state directory: the write-ahead job journal plus checkpoints/, datasets/ and, on a worker, retained/ beneath it; on restart queued and running jobs replay to byte-identical results (empty = memory only)")
	fs.Int64Var(&o.maxBody, "max-body", 256<<20, "maximum submission body bytes")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	fs.DurationVar(&o.metricsInterval, "metrics-interval", 0, "flush a metrics snapshot to the log this often (0 = final snapshot only)")
	fs.StringVar(&o.tenantLimits, "tenant-limits", "", `per-tenant token buckets: "rate=R,burst=N" defaults plus "tenant=R:N" overrides (empty or "off" = unlimited)`)
	fs.Int64Var(&o.interactiveB, "interactive-max-b", 10000, "sampled jobs with B at most this count as interactive")
	fs.DurationVar(&o.maxQueueWait, "max-queue-wait", 0, "shed submissions whose predicted queue wait exceeds this (0 = only shed on a full queue)")
	fs.StringVar(&o.logDst, "log", "stderr", "structured JSON log destination: stderr, stdout or a file path")
	fs.StringVar(&o.role, "role", "standalone", "cluster role: standalone, coordinator or worker")
	fs.StringVar(&o.clusterWorkers, "cluster-workers", "", "coordinator: comma-separated worker base URLs (http://host:port)")
	fs.StringVar(&o.join, "join", "", "worker: coordinator base URL to register with (heartbeat membership)")
	fs.StringVar(&o.advertise, "advertise", "", "worker: base URL to register under (default http://<host>:<port> of -addr)")
	fs.Int64Var(&o.distMinB, "dist-min-b", 1000, "coordinator: run jobs with B under this locally instead of distributing")
	fs.IntVar(&o.shardNProcs, "shard-nprocs", 0, "coordinator: ranks each worker uses per shard (0 = worker default)")
	fs.IntVar(&o.shardsPerWorker, "shards-per-worker", 2, "coordinator: shards carved per live worker")
	fs.StringVar(&o.faults, "faults", os.Getenv("SPRINT_FAULTS"),
		"deterministic fault-injection spec for crash testing, e.g. \"seed=7;ckpt.write:torn:n=2\" (default $SPRINT_FAULTS; empty = disabled)")
	return fs
}

// stateDir places a store beneath the journal tree; without a journal
// every store is memory only.
func (o *options) stateDir(name string) string {
	if o.journalDir == "" {
		return ""
	}
	return filepath.Join(o.journalDir, name)
}

// run starts the daemon and blocks until stop closes or a termination
// signal arrives.  stop exists for tests; pass nil in production.
func run(args []string, stdout io.Writer, stop <-chan struct{}) error {
	var o options
	if err := newFlagSet(&o).Parse(args); err != nil {
		return err
	}
	faultsInj, err := faultinject.Setup(o.faults)
	if err != nil {
		return err
	}
	limits, err := jobs.ParseTenantLimits(o.tenantLimits)
	if err != nil {
		return err
	}
	switch o.role {
	case "standalone", "coordinator", "worker":
	default:
		return fmt.Errorf("unknown -role %q (want standalone, coordinator or worker)", o.role)
	}
	if o.role != "worker" && o.join != "" {
		return errors.New("-join requires -role worker")
	}
	if o.role != "coordinator" && o.clusterWorkers != "" {
		return errors.New("-cluster-workers requires -role coordinator")
	}

	var logw io.Writer
	var logClose func() error
	switch o.logDst {
	case "stderr":
		logw = os.Stderr
	case "stdout":
		// The human lifecycle lines also write stdout; interleaving whole
		// lines is safe, both writers are line-buffered.
		logw = stdout
	default:
		f, err := os.OpenFile(o.logDst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening log file: %w", err)
		}
		logw, logClose = f, f.Close
	}
	logger := slog.New(slog.NewJSONHandler(logw, nil))
	if logClose != nil {
		defer logClose()
	}

	kernel := core.KernelName()
	fmt.Fprintf(stdout, "pmaxtd: kernel %s\n", kernel)
	// The fault plane is strictly for crash/chaos testing: the injected
	// schedule is deterministic per seed, and the cluster client below is
	// wrapped so transport faults fire too.  Say so loudly — a daemon
	// accidentally started with $SPRINT_FAULTS set should be obvious.
	var faultClient *http.Client
	if faultsInj != nil {
		fmt.Fprintf(stdout, "pmaxtd: FAULT INJECTION ACTIVE: %s\n", o.faults)
		faultClient = &http.Client{Transport: &faultinject.Transport{}}
	}
	if o.pprofAddr != "" {
		// The pprof handlers live on the DefaultServeMux, kept off the API
		// listener so profiling can stay on a private interface.  Only the
		// listener runs in the goroutine; stdout stays single-writer.
		fmt.Fprintf(stdout, "pmaxtd: pprof on %s\n", o.pprofAddr)
		addr := o.pprofAddr
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pmaxtd: pprof:", err)
			}
		}()
	}

	// One registry carries the whole plane: process/OS stats, the jobs
	// layer (queue, stages, shed decisions, dataset plane), the cluster
	// node and the per-route HTTP middleware all report here, and
	// GET /metrics serves it in the Prometheus text format.
	reg := metrics.New()
	metrics.RegisterProcessMetrics(reg)

	// The coordinator exists before the manager so it can be plugged in
	// as the manager's distributor; it holds no manager reference (shard
	// state rides each RunJob call), so the order is safe.
	var coord *cluster.Coordinator
	var dist jobs.Distributor
	if o.role == "coordinator" {
		var staticWorkers []string
		for _, w := range strings.Split(o.clusterWorkers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				staticWorkers = append(staticWorkers, w)
			}
		}
		coord = cluster.NewCoordinator(cluster.CoordinatorConfig{
			Workers:         staticWorkers,
			Client:          faultClient,
			ShardsPerWorker: o.shardsPerWorker,
			MinDistB:        o.distMinB,
			WorkerNProcs:    o.shardNProcs,
			Metrics:         reg,
			Logger:          logger,
		})
		dist = coord
	}

	// One flag buys full crash safety: the journal, the checkpoints and
	// the dataset mirror a replayed job needs all live in one tree.
	srv, err := httpapi.New(httpapi.Config{
		Jobs: jobs.Config{
			Workers:         o.workers,
			QueueDepth:      o.queue,
			DefaultNProcs:   o.nprocs,
			DefaultEvery:    o.every,
			JournalDir:      o.journalDir,
			CheckpointDir:   o.stateDir("checkpoints"),
			DatasetDir:      o.stateDir("datasets"),
			Metrics:         reg,
			InteractiveMaxB: o.interactiveB,
			TenantLimits:    limits,
			MaxQueueWait:    o.maxQueueWait,
			Distributor:     dist,
		},
		MaxBodyBytes: o.maxBody,
		Logger:       logger,
	})
	if err != nil {
		return err
	}

	var worker *cluster.Worker
	switch {
	case coord != nil:
		srv.AttachCluster(coord)
	case o.role == "worker":
		// Retention rides the same tree, so a worker survives a
		// coordinator crash with delivered AND undelivered work intact.
		worker = cluster.NewWorker(cluster.WorkerConfig{
			Source:       srv.Manager(),
			Client:       faultClient,
			NProcs:       o.nprocs,
			Every:        o.every,
			RetentionDir: o.stateDir("retained"),
			Metrics:      reg,
			Logger:       logger,
		})
		srv.AttachCluster(worker)
	}

	// The flusher snapshots the registry on the interval (when one is
	// set) and once more at shutdown — the final snapshot is emitted
	// through the same sink, so no samples are lost to the exit path.
	flusher := metrics.NewFlusher(reg, o.metricsInterval, func(s *metrics.Snapshot) {
		logger.LogAttrs(context.Background(), slog.LevelInfo, "metrics_snapshot",
			slog.Time("at", s.At),
			slog.Int("samples", len(s.Samples)),
			slog.Int64("rss_bytes", s.Proc.RSSBytes),
			slog.Int("goroutines", s.Proc.Goroutines),
			slog.Float64("gc_pause_total_s", s.Proc.GCPauseTotalS),
			slog.Float64("cpu_user_s", s.Proc.CPUUserS),
			slog.Any("metrics", s.Samples),
		)
	})

	// Listen before serving so a worker knows its bound port — ":0"
	// works for ephemeral test clusters — and -advertise can default.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		srv.Close()
		flusher.Stop()
		return err
	}
	boundAddr := ln.Addr().String()

	// stdout stays single-writer (the test harness hands us a plain
	// bytes.Buffer): all prints happen on this goroutine.
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "pmaxtd: %s listening on %s\n", o.role, boundAddr)
	logger.LogAttrs(context.Background(), slog.LevelInfo, "listening",
		slog.String("addr", boundAddr),
		slog.String("role", o.role),
		slog.String("kernel", kernel),
		slog.Bool("rate_limited", limits.Default.Rate > 0 || len(limits.Overrides) > 0),
	)
	errc := make(chan error, 1)
	go func() {
		errc <- hs.Serve(ln)
	}()

	var joinCancel context.CancelFunc
	advertiseURL := o.advertise
	if worker != nil && o.join != "" {
		if advertiseURL == "" {
			advertiseURL = "http://" + advertisableAddr(boundAddr)
		}
		fmt.Fprintf(stdout, "pmaxtd: joining %s as %s\n", o.join, advertiseURL)
		var joinCtx context.Context
		joinCtx, joinCancel = context.WithCancel(context.Background())
		go worker.Join(joinCtx, o.join, advertiseURL)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-errc:
		if joinCancel != nil {
			joinCancel()
		}
		srv.Close()
		flusher.Stop()
		return err
	case s := <-sigc:
		fmt.Fprintf(stdout, "pmaxtd: %v, shutting down\n", s)
	case <-stop:
		fmt.Fprintln(stdout, "pmaxtd: stop requested, shutting down")
	}

	// Worker drain runs before the listener shuts: in-flight shards stop
	// at their next window boundary and their responses — complete or
	// checkpointed prefix — still flow through the draining listener, so
	// the coordinator never loses finished permutations.
	if worker != nil {
		fmt.Fprintln(stdout, "pmaxtd: draining worker shards")
		worker.Drain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := hs.Shutdown(ctx)
	if joinCancel != nil {
		joinCancel()
	}
	if worker != nil && o.join != "" {
		worker.Deregister(o.join, advertiseURL)
	}
	srv.Close() // cancels running jobs at their next checkpoint window
	// Drained and stopped: flush the final snapshot so every counter the
	// run accumulated reaches the log exactly once.
	final := flusher.Stop()
	fmt.Fprintf(stdout, "pmaxtd: final metrics snapshot: %d series\n", len(final.Samples))
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	fmt.Fprintln(stdout, "pmaxtd: bye")
	return nil
}

// advertisableAddr rewrites a bound listen address into one another
// process can dial: wildcard hosts become the loopback address.
func advertisableAddr(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	switch host {
	case "", "0.0.0.0", "::", "[::]":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
