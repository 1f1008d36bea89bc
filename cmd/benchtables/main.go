// Command benchtables regenerates every table and figure of the paper's
// evaluation section:
//
//	-table 1..5   per-platform pmaxT profiles (paper data, model, deltas)
//	-table 6      large-dataset elapsed times at 256 processes
//	-figure 3     the log-log total-speedup plot across all platforms
//	-measure      run the real Go implementation on this machine across
//	              1..NumCPU ranks (scaled workload) and print a measured
//	              profile table in the same layout
//	-all          everything above
//
// Platform times for Tables I–V come from the calibrated analytic model in
// internal/perfmodel (we do not own a Cray XT4); the -measure mode provides
// genuinely measured numbers for the machine this runs on, which plays the
// role of the paper's quad-core desktop.  See DESIGN.md for the
// substitution argument and EXPERIMENTS.md for recorded outputs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"sprint"
	"sprint/internal/perfmodel"
	"sprint/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	table := fs.Int("table", 0, "regenerate one table (1-6)")
	figure := fs.Int("figure", 0, "regenerate one figure (3)")
	all := fs.Bool("all", false, "regenerate every table and figure")
	measure := fs.Bool("measure", false, "also run real measurements on this machine")
	genes := fs.Int("genes", 600, "measured workload: gene count (scaled from 6102)")
	perms := fs.Int64("perms", 3000, "measured workload: permutation count (scaled from 150000)")
	csvOut := fs.Bool("csv", false, "emit model profiles for all platforms as CSV and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvOut {
		return emitCSV(w)
	}
	if !*all && *table == 0 && *figure == 0 && !*measure {
		*all = true
	}

	if *all || (*table >= 1 && *table <= 5) {
		platforms := perfmodel.All()
		for i, pl := range platforms {
			if !*all && *table != i+1 {
				continue
			}
			if err := emitPlatformTable(w, i+1, pl); err != nil {
				return err
			}
		}
	}
	if *all || *table == 6 {
		if err := emitTableVI(w); err != nil {
			return err
		}
	}
	if *all || *figure == 3 {
		if err := emitFigure3(w); err != nil {
			return err
		}
	}
	if *all || *measure {
		if err := emitMeasured(w, *genes, *perms); err != nil {
			return err
		}
	}
	return nil
}

// emitCSV writes the model profile of every platform at every paper
// process count as one CSV stream, for plotting.
func emitCSV(w io.Writer) error {
	first := true
	for _, pl := range perfmodel.All() {
		base := pl.Predict(1)
		var rows []report.ProfileRow
		for _, p := range pl.ProcCounts() {
			m := pl.Predict(p)
			rows = append(rows, report.ProfileRow{
				Procs: p, Pre: m.Pre, Bcast: m.Bcast, Data: m.Data,
				Kernel: m.Kernel, PVal: m.PVal,
				Speedup: base.Total() / m.Total(), SpeedupKernel: base.Kernel / m.Kernel,
			})
		}
		if !first {
			// Re-emitting the header per platform would break CSV
			// consumers; strip it by writing to a buffer after the first.
			var buf bytes.Buffer
			if err := report.TableCSV(&buf, pl.Name, rows); err != nil {
				return err
			}
			body := buf.String()
			if idx := strings.IndexByte(body, '\n'); idx >= 0 {
				body = body[idx+1:]
			}
			if _, err := io.WriteString(w, body); err != nil {
				return err
			}
			continue
		}
		if err := report.TableCSV(w, pl.Name, rows); err != nil {
			return err
		}
		first = false
	}
	return nil
}

// romanNumerals for the paper's table numbering.
var romanNumerals = []string{"", "I", "II", "III", "IV", "V", "VI"}

// emitPlatformTable prints the paper's measured rows, the model's rows and
// a cell-by-cell comparison for one platform.
func emitPlatformTable(w io.Writer, idx int, pl perfmodel.Platform) error {
	paper := perfmodel.PaperTable(pl.Name)
	title := fmt.Sprintf("Table %s: profile of pmaxT (%s) — %s", romanNumerals[idx], pl.Name, pl.Description)

	paperRows := make([]report.ProfileRow, len(paper))
	modelRows := make([]report.ProfileRow, len(paper))
	cmpRows := make([]report.ComparisonRow, len(paper))
	base := pl.Predict(1)
	for i, row := range paper {
		paperRows[i] = report.ProfileRow{
			Procs: row.Procs, Pre: row.Pre, Bcast: row.Bcast, Data: row.Data,
			Kernel: row.Kernel, PVal: row.PVal,
			Speedup: row.Speedup, SpeedupKernel: row.SpeedupKernel,
		}
		m := pl.Predict(row.Procs)
		modelRows[i] = report.ProfileRow{
			Procs: row.Procs, Pre: m.Pre, Bcast: m.Bcast, Data: m.Data,
			Kernel: m.Kernel, PVal: m.PVal,
			Speedup: base.Total() / m.Total(), SpeedupKernel: base.Kernel / m.Kernel,
		}
		cmpRows[i] = report.ComparisonRow{
			Procs:       row.Procs,
			PaperKernel: row.Kernel, ModelKernel: m.Kernel,
			PaperTotal: row.Profile().Total(), ModelTotal: m.Total(),
			PaperSpeedup: row.Speedup, ModelSpeedup: base.Total() / m.Total(),
		}
	}
	if err := report.Table(w, title+"\n[paper, measured]", paperRows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Table(w, "[model, this reproduction]", modelRows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Comparison(w, "[paper vs model]", cmpRows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// emitTableVI prints the large-dataset comparison at 256 processes.
func emitTableVI(w io.Writer) error {
	h := perfmodel.HECToR()
	var rows []report.TableVIRow
	for _, r := range perfmodel.PaperTableVI() {
		m := h.PredictWorkload(r.Genes, r.Samples, r.Perms, perfmodel.TableVIProcs)
		rows = append(rows, report.TableVIRow{
			Genes: r.Genes, Samples: r.Samples, SizeMB: r.SizeMB, Perms: r.Perms,
			PaperTotal: r.TotalSec, ModelTotal: m.Total(),
			PaperSerial: r.SerialSec, ModelSerial: h.SerialApprox(r.Genes, r.Perms),
		})
	}
	err := report.TableVI(w, "Table VI: pmaxT on 256 HECToR processes vs serial approximation", rows)
	fmt.Fprintln(w)
	return err
}

// emitFigure3 prints the speedup plot twice: once from the paper's
// published speedup columns and once from the model.
func emitFigure3(w io.Writer) error {
	var paperSeries, modelSeries []report.Series
	for _, pl := range perfmodel.All() {
		paper := perfmodel.PaperTable(pl.Name)
		ps := report.Series{Name: pl.Name}
		ms := report.Series{Name: pl.Name}
		for _, row := range paper {
			ps.Procs = append(ps.Procs, row.Procs)
			ps.Values = append(ps.Values, row.Speedup)
			tot, _ := pl.Speedup(row.Procs)
			ms.Procs = append(ms.Procs, row.Procs)
			ms.Values = append(ms.Values, tot)
		}
		paperSeries = append(paperSeries, ps)
		modelSeries = append(modelSeries, ms)
	}
	if err := report.Figure(w, "Figure 3: pmaxT speed-up, total execution times [paper data]", paperSeries, 512); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Figure(w, "Figure 3: pmaxT speed-up, total execution times [model]", modelSeries, 512); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// emitMeasured runs the real Go pmaxT on this machine across goroutine
// counts and prints a genuinely measured profile table: the reproduction's
// counterpart of Table V's desktop column.
func emitMeasured(w io.Writer, genes int, perms int64) error {
	opt := sprint.PaperDataset()
	opt.Genes = genes
	data, err := sprint.GenerateDataset(opt)
	if err != nil {
		return err
	}
	runOpt := sprint.DefaultOptions()
	runOpt.B = perms
	runOpt.Seed = 42

	maxProcs := runtime.NumCPU()
	var rows []report.ProfileRow
	var baseTotal, baseKernel time.Duration
	for p := 1; p <= maxProcs; p *= 2 {
		res, err := sprint.PMaxT(data.X, data.Labels, p, runOpt)
		if err != nil {
			return err
		}
		prof := res.Profile
		if p == 1 {
			baseTotal, baseKernel = prof.Total(), res.KernelMax
		}
		rows = append(rows, report.ProfileRow{
			Procs: p,
			Pre:   prof.PreProcessing.Seconds(), Bcast: prof.BroadcastParams.Seconds(),
			Data: prof.CreateData.Seconds(), Kernel: prof.MainKernel.Seconds(),
			PVal:          prof.ComputePValues.Seconds(),
			Speedup:       float64(baseTotal) / float64(prof.Total()),
			SpeedupKernel: float64(baseKernel) / float64(res.KernelMax),
		})
	}
	title := fmt.Sprintf(
		"Measured on this machine (%d CPUs): %d x %d genes, B = %d — real goroutine-parallel pmaxT",
		maxProcs, genes, data.Cols(), perms)
	err = report.Table(w, title, rows)
	fmt.Fprintln(w)
	return err
}
