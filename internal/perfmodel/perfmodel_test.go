package perfmodel

import (
	"math"
	"testing"
)

func TestStages(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 512: 9}
	for p, want := range cases {
		if got := stages(p); got != want {
			t.Errorf("stages(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestSplitStages(t *testing.T) {
	cases := []struct{ p, c, mem, net int }{
		{1, 8, 0, 0}, {8, 8, 3, 0}, {16, 8, 3, 1}, {512, 16, 4, 5},
		{4, 16, 2, 0}, {32, 4, 2, 3},
	}
	for _, tc := range cases {
		mem, net := splitStages(tc.p, tc.c)
		if mem != tc.mem || net != tc.net {
			t.Errorf("splitStages(%d,%d) = (%d,%d), want (%d,%d)", tc.p, tc.c, mem, net, tc.mem, tc.net)
		}
	}
}

func TestCatalogComplete(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("platform count = %d, want 5", len(all))
	}
	wantMax := map[string]int{
		"HECToR": 512, "ECDF": 128, "Amazon EC2": 32, "Ness": 16, "Quad-core desktop": 4,
	}
	for _, pl := range all {
		if pl.MaxProcs != wantMax[pl.Name] {
			t.Errorf("%s MaxProcs = %d, want %d", pl.Name, pl.MaxProcs, wantMax[pl.Name])
		}
		if PaperTable(pl.Name) == nil {
			t.Errorf("no paper table for %q", pl.Name)
		}
	}
}

func TestProcCounts(t *testing.T) {
	pl := HECToR()
	counts := pl.ProcCounts()
	if len(counts) != 10 || counts[0] != 1 || counts[9] != 512 {
		t.Errorf("HECToR ProcCounts = %v", counts)
	}
}

func TestSingleProcessMatchesPaperBaseline(t *testing.T) {
	// At p = 1 the model must reproduce the measured baseline almost
	// exactly: T1Kernel and PreProc are read straight off the tables.
	for _, pl := range All() {
		row := PaperTable(pl.Name)[0]
		prof := pl.Predict(1)
		if math.Abs(prof.Kernel-row.Kernel) > 1e-9 {
			t.Errorf("%s: model T1 kernel %.3f != paper %.3f", pl.Name, prof.Kernel, row.Kernel)
		}
		if math.Abs(prof.Pre-row.Pre) > 0.08 {
			t.Errorf("%s: model pre %.3f far from paper %.3f", pl.Name, prof.Pre, row.Pre)
		}
		if prof.Bcast != 0 {
			t.Errorf("%s: broadcast cost at p=1 should be 0, got %v", pl.Name, prof.Bcast)
		}
	}
}

// TestKernelWithinTolerance checks every kernel cell of Tables I–V against
// the model.  The tables are minima over five runs on shared machines, so
// we accept 15% relative error per cell.
func TestKernelWithinTolerance(t *testing.T) {
	for _, pl := range All() {
		for _, row := range PaperTable(pl.Name) {
			got := pl.Predict(row.Procs).Kernel
			rel := math.Abs(got-row.Kernel) / row.Kernel
			if rel > 0.15 {
				t.Errorf("%s p=%d: model kernel %.2f vs paper %.2f (%.0f%% off)",
					pl.Name, row.Procs, got, row.Kernel, rel*100)
			}
		}
	}
}

// TestTotalSpeedupShape asserts the qualitative claims of Section 4.4 hold
// in the model: who scales well, and where each platform's knee falls.
func TestTotalSpeedupShape(t *testing.T) {
	// HECToR: near-optimal far out; total speedup at 512 within [250, 512]
	// and clearly below the kernel speedup (collective overheads).
	h := HECToR()
	tot, ker := h.Speedup(512)
	if tot < 250 || tot > 512 {
		t.Errorf("HECToR total speedup at 512 = %.0f, want near paper's 313", tot)
	}
	if ker <= tot {
		t.Errorf("HECToR kernel speedup %.0f not above total %.0f at 512", ker, tot)
	}

	// ECDF: memory-bus knee between 4 and 8 — efficiency drops by > 15%.
	e := ECDF()
	eff4, _ := e.Speedup(4)
	eff8, _ := e.Speedup(8)
	if eff4/4 < 0.90 {
		t.Errorf("ECDF efficiency at 4 = %.2f, should still be high", eff4/4)
	}
	if eff8/8 > 0.80 {
		t.Errorf("ECDF efficiency at 8 = %.2f, knee missing", eff8/8)
	}

	// EC2: knee at 2-4 and the worst total-vs-kernel divergence at 32.
	a := EC2()
	eff2, _ := a.Speedup(2)
	eff4a, _ := a.Speedup(4)
	if eff2/2 < 0.85 {
		t.Errorf("EC2 efficiency at 2 = %.2f, too pessimistic", eff2/2)
	}
	if eff4a/4 > 0.85 {
		t.Errorf("EC2 efficiency at 4 = %.2f, knee missing", eff4a/4)
	}
	tot32, ker32 := a.Speedup(32)
	if ker32-tot32 < 3 {
		t.Errorf("EC2 at 32: total %.1f vs kernel %.1f should diverge strongly", tot32, ker32)
	}

	// Ness: good to 8, NUMA penalty at 16 (speedup ~10, not ~15).
	n := Ness()
	tot8, _ := n.Speedup(8)
	tot16, _ := n.Speedup(16)
	if tot8 < 6.5 {
		t.Errorf("Ness speedup at 8 = %.1f, too low", tot8)
	}
	if tot16 > 12 {
		t.Errorf("Ness speedup at 16 = %.1f, NUMA penalty missing (paper: 10.03)", tot16)
	}

	// Quad-core: ~2x at 2, ~3.4x at 4.
	q := QuadCore()
	qt2, _ := q.Speedup(2)
	qt4, _ := q.Speedup(4)
	if math.Abs(qt2-2.0) > 0.1 {
		t.Errorf("quad-core speedup at 2 = %.2f, want ~2.0", qt2)
	}
	if qt4 < 3.0 || qt4 > 3.8 {
		t.Errorf("quad-core speedup at 4 = %.2f, want ~3.37", qt4)
	}
}

// TestSpeedupAgainstPaperColumns compares the model's speedup columns with
// the published ones at 20% tolerance.
func TestSpeedupAgainstPaperColumns(t *testing.T) {
	for _, pl := range All() {
		for _, row := range PaperTable(pl.Name) {
			if row.Procs == 1 {
				continue
			}
			tot, ker := pl.Speedup(row.Procs)
			if rel := math.Abs(tot-row.Speedup) / row.Speedup; rel > 0.20 {
				t.Errorf("%s p=%d: total speedup %.2f vs paper %.2f (%.0f%% off)",
					pl.Name, row.Procs, tot, row.Speedup, rel*100)
			}
			if rel := math.Abs(ker-row.SpeedupKernel) / row.SpeedupKernel; rel > 0.20 {
				t.Errorf("%s p=%d: kernel speedup %.2f vs paper %.2f (%.0f%% off)",
					pl.Name, row.Procs, ker, row.SpeedupKernel, rel*100)
			}
		}
	}
}

// TestTableVIWithinTolerance: the modelled 256-process elapsed times for
// the exon-array datasets must track Table VI within 10%.
func TestTableVIWithinTolerance(t *testing.T) {
	h := HECToR()
	for _, row := range PaperTableVI() {
		got := h.PredictWorkload(row.Genes, row.Samples, row.Perms, TableVIProcs).Total()
		rel := math.Abs(got-row.TotalSec) / row.TotalSec
		if rel > 0.10 {
			t.Errorf("TableVI %dx%d B=%d: model %.2f vs paper %.2f (%.0f%% off)",
				row.Genes, row.Samples, row.Perms, got, row.TotalSec, rel*100)
		}
		serial := h.SerialApprox(row.Genes, row.Perms)
		if rel := math.Abs(serial-row.SerialSec) / row.SerialSec; rel > 0.12 {
			t.Errorf("TableVI %dx%d B=%d: serial approx %.0f vs paper %.0f (%.0f%% off)",
				row.Genes, row.Samples, row.Perms, serial, row.SerialSec, rel*100)
		}
	}
}

// TestTableVIScalingLaws: doubling the dataset size or the permutation
// count must roughly double the elapsed time (Section 4.4's observation).
func TestTableVIScalingLaws(t *testing.T) {
	h := HECToR()
	t1 := h.PredictWorkload(36612, 76, 500000, 256).Total()
	t2 := h.PredictWorkload(73224, 76, 500000, 256).Total()
	if r := t2 / t1; r < 1.85 || r > 2.2 {
		t.Errorf("doubling rows scales time by %.2f, want ~2", r)
	}
	t4 := h.PredictWorkload(36612, 76, 1000000, 256).Total()
	if r := t4 / t1; r < 1.9 || r > 2.1 {
		t.Errorf("doubling perms scales time by %.2f, want ~2", r)
	}
}

func TestKernelMonotoneInProcs(t *testing.T) {
	for _, pl := range All() {
		prev := math.Inf(1)
		for _, p := range pl.ProcCounts() {
			k := pl.Predict(p).Kernel
			if k >= prev {
				t.Errorf("%s: kernel time not decreasing at p=%d (%.2f >= %.2f)", pl.Name, p, k, prev)
			}
			prev = k
		}
	}
}

func TestPredictPanicsOnBadProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Predict(0) did not panic")
		}
	}()
	HECToR().Predict(0)
}

func TestProfileTotal(t *testing.T) {
	p := Profile{Pre: 1, Bcast: 2, Data: 3, Kernel: 4, PVal: 5}
	if p.Total() != 15 {
		t.Errorf("Total = %v", p.Total())
	}
	row := PaperRow{Procs: 2, Pre: 1, Bcast: 2, Data: 3, Kernel: 4, PVal: 5}
	if row.Profile().Total() != 15 {
		t.Errorf("PaperRow.Profile().Total() = %v", row.Profile().Total())
	}
}
