package main

import (
	"fmt"
	"runtime"
	"time"

	"sprint/internal/httpapi"
)

// opKind is what one op of a workload does.
type opKind int

const (
	// opDatasetJob submits a job against the dataset registered once in
	// set-up.
	opDatasetJob opKind = iota
	// opIngestJSON submits one job carrying a never-seen matrix inline
	// as x_flat JSON.
	opIngestJSON
)

// workload is one row of the catalogue: a topology, an input and the op
// every client repeats in a closed loop.
type workload struct {
	name string
	why  string
	// cluster runs a coordinator and two workers instead of one
	// standalone daemon.
	cluster bool
	// clients is the closed-loop caller count; 0 means min(nproc, 4),
	// enough to keep a queue standing behind the daemon's default worker
	// pool.
	clients int
	// rows × cols is the matrix, half the columns in each class.
	rows, cols int
	// opt is the option template; each job fills in its own seed.
	opt  httpapi.OptionsJSON
	kind opKind
	// relabel gives every job its own balanced relabelling of the
	// columns, so neither the result cache nor the prep cache can hit.
	relabel bool
	// coldPrep records that every op builds its own preparation (new
	// labels or a new matrix), which the traced ladder must charge to
	// the op instead of to set-up.
	coldPrep bool
	poll     time.Duration
	// warmups is how many jobs set-up runs; the first is verified bit
	// for bit against the in-process reference.
	warmups int
}

func (w *workload) nClients() int {
	if w.clients == 0 {
		return min(runtime.NumCPU(), 4)
	}
	return w.clients
}

// The paper's matrix is 6102 genes × 76 samples in two classes of 38.
const (
	paperRows = 6102
	paperCols = 76
)

// catalogue returns the workloads at full or -quick scale.  Quick scale
// (200×20, B = 64) exists for the smoke test: same code paths, seconds
// instead of minutes.
func catalogue(quick bool) []*workload {
	rows, cols := paperRows, paperCols
	bulkB, smallB, seqB, wilcoxonCols := int64(10000), int64(128), int64(1000000), 16
	if quick {
		rows, cols = 200, 20
		// Sequential mode needs room to stop early and the cluster only
		// distributes B >= 1000 (-dist-min-b), so those two stay larger.
		bulkB, smallB, seqB, wilcoxonCols = 2048, 64, 20000, 10
	}
	return []*workload{
		{
			name: "batch_exact",
			why:  "the paper's workload: one client, Welch t on 6102x76, sampled B=10000; >=95% engine time, so kernel, counting, batch-size and ISA changes show here first",
			rows: rows, cols: cols, clients: 1,
			opt:  httpapi.OptionsJSON{Test: "t", Side: "abs", B: bulkB},
			poll: 2 * time.Millisecond, warmups: 1,
		},
		{
			name: "complete_wilcoxon",
			why:  "complete enumeration C(16,8)=12870 of Wilcoxon ranks on 6102x16 under a fresh relabelling per job: revolving-door generator, integer delta kernel and a cold prep every job",
			rows: rows, cols: wilcoxonCols, clients: 1,
			opt:     httpapi.OptionsJSON{Test: "wilcoxon", Side: "abs", B: 0},
			relabel: true, coldPrep: true,
			poll: 2 * time.Millisecond, warmups: 1,
		},
		{
			name: "seq_bulk",
			why:  "time to a solution of stated accuracy: sequential mode, nominal B=1e6, alpha 0.05, tolerance 0.02; exercises seqstop, row compaction and per-window peeking",
			rows: rows, cols: cols, clients: 1,
			opt:  httpapi.OptionsJSON{Test: "t", Side: "abs", B: seqB, Mode: "sequential", TargetAlpha: 0.05, PTolerance: 0.02},
			poll: 2 * time.Millisecond, warmups: 1,
		},
		{
			name: "serve_small",
			why:  "min(nproc,4) clients, B=128 on a hot prep: the engine is ~60% of a job, the rest is per-job cost in httpapi, jobs (one worker, a standing queue, journal) and core",
			rows: rows, cols: cols,
			opt:  httpapi.OptionsJSON{Test: "t", Side: "abs", B: smallB},
			poll: time.Millisecond, warmups: 16,
		},
		{
			name: "ingest_json",
			why:  "first result on new data: every op POSTs a never-seen 6102x76 matrix inline as x_flat JSON, B=128; the streaming scanner, submit decode and Prepare dominate, the kernel does little",
			rows: rows, cols: cols, clients: 1,
			opt:  httpapi.OptionsJSON{Test: "t", Side: "abs", B: smallB},
			kind: opIngestJSON, coldPrep: true,
			poll: time.Millisecond, warmups: 1,
		},
		{
			name: "cluster_exact",
			why:  "batch_exact's dataset, B and seeds through a coordinator and two workers: shard RPC, leases, durable ledger and merge; results must equal batch_exact's bit for bit",
			rows: rows, cols: cols,
			cluster: true, clients: 1,
			opt:  httpapi.OptionsJSON{Test: "t", Side: "abs", B: bulkB},
			poll: 2 * time.Millisecond, warmups: 1,
		},
	}
}

// selectWorkloads resolves a comma-separated -workload value against the
// catalogue, keeping catalogue order; "all" selects everything.
func selectWorkloads(all []*workload, names []string) ([]*workload, error) {
	if len(names) == 1 && names[0] == "all" {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*workload
	for _, w := range all {
		if want[w.name] {
			out = append(out, w)
			delete(want, w.name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("unknown workload %q", n)
	}
	return out, nil
}
