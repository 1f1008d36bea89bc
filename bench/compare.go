package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file is `bench --compare A.json B.json`: the before/after table of
// two output documents, and the gate behind it.

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles prints, per (workload, metric), both values, the relative
// difference and — for end-to-end metrics — the bound.  It reports
// whether B regressed: an end-to-end metric worse than A by more than
// its bound, or a higher share of failed ops.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	return compareDocuments(w, a, b), nil
}

// worsening returns by which share of a the value b is worse, given the
// metric's direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareDocuments(w io.Writer, a, b *document) (regressed bool) {
	fmt.Fprintf(w, "A: commit %s seed %d, %gs   B: commit %s seed %d, %gs\n",
		a.Header.Commit, a.Header.Seed, a.Header.Seconds, b.Header.Commit, b.Header.Seed, b.Header.Seconds)
	byName := make(map[string]*workloadResult, len(b.Workloads))
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: only in A\n", ra.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s: ops failed/attempted A %d/%d, B %d/%d\n", ra.Name, ra.OpsFailed, ra.OpsAttempted, rb.OpsFailed, rb.OpsAttempted)
		if failShare(rb) > failShare(ra) {
			fmt.Fprintf(w, "  REGRESSION: the share of failed ops rose\n")
			regressed = true
		}
		row := func(s metricSpec, va, vb metricValue, gated bool) {
			worse := worsening(va.Value, vb.Value, s.Better)
			mark := ""
			if gated {
				mark = fmt.Sprintf("  bound %.0f%%", 100*s.Bound)
				if worse > s.Bound {
					mark += "  REGRESSION"
					regressed = true
				}
			}
			fmt.Fprintf(w, "  %-34s %14.6g %14.6g %-6s %+7.2f%% worse%s\n", s.Name, va.Value, vb.Value, s.Unit, 100*worse, mark)
		}
		for _, s := range endToEndSpecs {
			va, okA := ra.EndToEnd[s.Name]
			vb, okB := rb.EndToEnd[s.Name]
			if okA && okB {
				row(s, va, vb, true)
			}
		}
		for _, s := range perLayerSpecs {
			va, okA := ra.PerLayer[s.Name]
			vb, okB := rb.PerLayer[s.Name]
			if okA && okB && (va.Value != 0 || vb.Value != 0) {
				row(s, va, vb, false)
			}
		}
	}
	return regressed
}

func failShare(r *workloadResult) float64 {
	if r.OpsAttempted == 0 {
		return 0
	}
	return float64(r.OpsFailed) / float64(r.OpsAttempted)
}
