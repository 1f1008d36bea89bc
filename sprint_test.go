package sprint_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"sprint"
	"sprint/internal/report"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	data, err := sprint.GenerateDataset(sprint.DatasetOptions{
		Genes: 200, Samples: 20, Classes: 2,
		DiffFraction: 0.05, EffectSize: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := sprint.DefaultOptions()
	opt.B = 1000
	opt.Seed = 5

	serial, err := sprint.MaxT(data.X, data.Labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sprint.PMaxT(data.X, data.Labels, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.RawP {
		if serial.RawP[i] != parallel.RawP[i] || serial.AdjP[i] != parallel.AdjP[i] {
			t.Fatalf("row %d: serial and parallel p-values differ", i)
		}
	}
	// The ten spiked genes carry ".DE" names and must dominate the order.
	for i := 0; i < 10; i++ {
		r := parallel.Order[i]
		if !data.Differential[r] {
			t.Errorf("order[%d] = row %d, which is not differential", i, r)
		}
	}
}

func TestPublicAPIDatasetRoundTrip(t *testing.T) {
	data, err := sprint.GenerateDataset(sprint.DatasetOptions{Genes: 20, Samples: 8, Classes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sprint.ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 20 || back.Cols() != 8 {
		t.Fatalf("round trip dims %dx%d", back.Rows(), back.Cols())
	}
}

func TestPaperDatasetDimensions(t *testing.T) {
	opt := sprint.PaperDataset()
	if opt.Genes != 6102 || opt.Samples != 76 {
		t.Errorf("paper dataset %dx%d, want 6102x76", opt.Genes, opt.Samples)
	}
}

func TestDefaultNAExported(t *testing.T) {
	if sprint.DefaultNA != -93074815.62 {
		t.Errorf("DefaultNA = %v", sprint.DefaultNA)
	}
}

func ExampleMaxT() {
	// Two genes over six samples, three per class; the first gene is
	// strongly differential.
	x := [][]float64{
		{9.1, 8.7, 9.3, 1.2, 1.0, 1.4},
		{5.1, 4.9, 5.0, 5.2, 4.8, 5.1},
	}
	labels := []int{0, 0, 0, 1, 1, 1}
	opt := sprint.DefaultOptions()
	opt.B = 0 // complete enumeration: C(6,3) = 20 permutations
	res, err := sprint.MaxT(x, labels, opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("permutations: %d (complete: %v)\n", res.B, res.Complete)
	fmt.Printf("most significant row: %d\n", res.Order[0])
	fmt.Printf("raw p of row 0: %.2f\n", res.RawP[0])
	// The raw p of 0.10 is exact: of the 20 distinct labellings, only the
	// observed one and its mirror reach the observed |t|.

	// Output:
	// permutations: 20 (complete: true)
	// most significant row: 0
	// raw p of row 0: 0.10
}

// ExamplePMaxT is the quick start: a synthetic two-class experiment, the
// parallel function on every CPU, and the most significant genes with
// their Westfall–Young adjusted p-values.  The same call on one rank
// returns the same bits.
func ExamplePMaxT() {
	// A 1000-gene, 40-sample experiment: 20 control vs 20 treated
	// samples, with 2% of genes truly differential.
	data, err := sprint.GenerateDataset(sprint.DatasetOptions{
		Genes: 1000, Samples: 40, Classes: 2,
		DiffFraction: 0.02, EffectSize: 2.0, Seed: 7,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The same call shape as R's pmaxT(X, classlabel, B=10000).
	opt := sprint.DefaultOptions()
	opt.B, opt.Seed = 10000, 1
	res, err := sprint.PMaxT(data.X, data.Labels, runtime.NumCPU(), opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	serial, err := sprint.PMaxT(data.X, data.Labels, 1, opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	same := true
	for i := range res.AdjP {
		same = same && math.Float64bits(res.RawP[i]) == math.Float64bits(serial.RawP[i]) &&
			math.Float64bits(res.AdjP[i]) == math.Float64bits(serial.AdjP[i])
	}

	fmt.Printf("pmaxT: %d genes x %d samples, %d permutations\n", data.Rows(), data.Cols(), res.B)
	fmt.Println("bit-identical to one rank:", same)
	// The generator suffixes truly differential genes with ".DE", so the
	// top of the table is all-.DE with small adjusted p-values.
	if err := report.PValueTable(os.Stdout, data.GeneNames, res.Stat, res.RawP, res.AdjP, res.Order, 8); err != nil {
		fmt.Println("error:", err)
		return
	}
	hits := 0
	for _, p := range res.AdjP {
		if p <= 0.05 {
			hits++
		}
	}
	fmt.Printf("genes significant at FWER 0.05: %d (dataset contains 20 true positives)\n", hits)

	// Output:
	// pmaxT: 1000 genes x 40 samples, 10000 permutations
	// bit-identical to one rank: true
	//    # gene                statistic        raw p        adj p
	// ------------------------------------------------------------
	//    1 g000018.DE             8.4652     0.000100     0.000100
	//    2 g000015.DE             7.8614     0.000100     0.000100
	//    3 g000001.DE             7.7768     0.000100     0.000100
	//    4 g000013.DE             6.9751     0.000100     0.000300
	//    5 g000017.DE             6.9655     0.000100     0.000300
	//    6 g000007.DE             6.9208     0.000100     0.000300
	//    7 g000011.DE             6.8391     0.000100     0.000300
	//    8 g000004.DE             6.6442     0.000100     0.000300
	// genes significant at FWER 0.05: 20 (dataset contains 20 true positives)
}

// Example_differential shows why the paper's users want many permutations
// and what the maxT adjustment buys them, on one dataset at three
// permutation counts:
//
//  1. Resolution: with B permutations no p-value can be below 1/B, so
//     small permutation counts cannot certify strong discoveries at all —
//     "these users wish to execute more permutations to better validate
//     their experimental results" (Section 3.2).
//  2. Error control: raw p-values at 0.05 admit about 5% of the null genes
//     as false positives whatever B is, while the step-down maxT
//     adjustment controls the family-wise error rate.
func Example_differential() {
	const genes, trueDE = 600, 6
	data, err := sprint.GenerateDataset(sprint.DatasetOptions{
		Genes: genes, Samples: 30, Classes: 2,
		DiffFraction: float64(trueDE) / genes, EffectSize: 2.2, Seed: 99,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d genes (%d truly differential), %d samples\n", genes, trueDE, data.Cols())
	fmt.Printf("%6s %10s %9s %8s %9s %8s\n", "B", "min adj p", "raw hits", "raw FP", "adj hits", "adj FP")
	for _, b := range []int64{100, 1000, 5000} {
		opt := sprint.DefaultOptions()
		opt.B, opt.Seed = b, 4
		res, err := sprint.PMaxT(data.X, data.Labels, 0, opt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		var rawHits, rawFP, adjHits, adjFP int
		minAdj := 1.0
		for i, adj := range res.AdjP {
			minAdj = min(minAdj, adj)
			if res.RawP[i] <= 0.05 {
				rawHits++
				if !data.Differential[i] {
					rawFP++
				}
			}
			if adj <= 0.05 {
				adjHits++
				if !data.Differential[i] {
					adjFP++
				}
			}
		}
		fmt.Printf("%6d %10.5f %9d %8d %9d %8d\n", res.B, minAdj, rawHits, rawFP, adjHits, adjFP)
	}

	// Output:
	// 600 genes (6 truly differential), 30 samples
	//      B  min adj p  raw hits   raw FP  adj hits   adj FP
	//    100    0.01000        34       28         6        0
	//   1000    0.00100        35       29         6        0
	//   5000    0.00020        35       29         6        0
}

// ExampleMaxTCheckpointed is the paper's future-work item 1: a long run
// snapshots its exceedance counts every few thousand permutations, a
// simulated node failure stops it at 40 %, and the run resumes from the
// encoded checkpoint to a result bit-identical to an uninterrupted one.
func ExampleMaxTCheckpointed() {
	data, err := sprint.GenerateDataset(sprint.DatasetOptions{
		Genes: 100, Samples: 24, Classes: 2,
		DiffFraction: 0.04, EffectSize: 2.5, Seed: 33,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opt := sprint.DefaultOptions()
	opt.B, opt.Seed = 20000, 8

	var saved bytes.Buffer
	crash := errors.New("simulated node failure")
	_, err = sprint.MaxTCheckpointed(data.X, data.Labels, opt, nil, 4096, func(c *sprint.Checkpoint) error {
		saved.Reset()
		if err := c.Encode(&saved); err != nil {
			return err
		}
		fmt.Printf("checkpoint: %d/%d permutations done\n", c.Done, c.TotalB)
		if c.Next >= opt.B*2/5 {
			return crash
		}
		return nil
	})
	fmt.Println("first run:", err)

	resume, err := sprint.DecodeCheckpoint(&saved)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	resumed, err := sprint.MaxTCheckpointed(data.X, data.Labels, opt, resume, 4096, func(*sprint.Checkpoint) error { return nil })
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	reference, err := sprint.MaxT(data.X, data.Labels, opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	same := true
	for i := range reference.AdjP {
		same = same && math.Float64bits(reference.RawP[i]) == math.Float64bits(resumed.RawP[i]) &&
			math.Float64bits(reference.AdjP[i]) == math.Float64bits(resumed.AdjP[i])
	}
	fmt.Printf("resumed at %d; bit-identical to an uninterrupted run: %v\n", resume.Next, same)
	fmt.Println("top gene:", data.GeneNames[resumed.Order[0]])

	// Output:
	// checkpoint: 4096/20000 permutations done
	// checkpoint: 8192/20000 permutations done
	// first run: core: checkpoint save at permutation 8192: simulated node failure
	// resumed at 8192; bit-identical to an uninterrupted run: true
	// top gene: g000002.DE
}

// ExamplePMaxT_complete runs exact designs (B = 0): small sample counts
// enumerate every distinct labelling on the fly, so the p-values are exact
// rather than Monte Carlo estimates.  A design too large to enumerate is
// refused with a request for an explicit B, as in mt.maxT.
func ExamplePMaxT_complete() {
	for _, design := range []struct {
		test string
		gen  sprint.DatasetOptions
	}{
		{"t", sprint.DatasetOptions{Genes: 300, Samples: 10, Classes: 2, DiffFraction: 0.03, EffectSize: 3.5, Seed: 21}},
		{"pairt", sprint.DatasetOptions{Genes: 300, Samples: 20, Classes: 2, Paired: true, DiffFraction: 0.03, EffectSize: 2.5, Seed: 22}},
	} {
		data, err := sprint.GenerateDataset(design.gen)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		opt := sprint.DefaultOptions()
		opt.Test, opt.B = design.test, 0
		res, err := sprint.PMaxT(data.X, data.Labels, 4, opt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		top := res.Order[0]
		fmt.Printf("%s: %d exact permutations (complete: %v); top gene %s, raw p %.5f\n",
			design.test, res.B, res.Complete, data.GeneNames[top], res.RawP[top])
	}

	wide, err := sprint.GenerateDataset(sprint.DatasetOptions{Genes: 10, Samples: 76, Classes: 2, Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opt := sprint.DefaultOptions()
	opt.B = 0 // C(76, 38) ~ 9e21 labellings
	_, err = sprint.MaxT(wide.X, wide.Labels, opt)
	fmt.Println("76 samples:", err)

	// Output:
	// t: 252 exact permutations (complete: true); top gene g000004.DE, raw p 0.00794
	// pairt: 1024 exact permutations (complete: true); top gene g000009.DE, raw p 0.00195
	// 76 samples: core: complete permutations (more than 2^63) exceed the maximum allowed limit (4194304); please request a smaller number of permutations explicitly via B
}

func TestMaxTCheckpointedRejectsInterval(t *testing.T) {
	x := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	if _, err := sprint.MaxTCheckpointed(x, []int{0, 0, 1, 1}, sprint.Options{B: 10}, nil, 0, nil); err == nil {
		t.Fatal("interval 0 accepted")
	}
}

func TestProfileExposed(t *testing.T) {
	x := [][]float64{
		{9.1, 8.7, 9.3, 1.2, 1.0, 1.4},
		{5.1, 4.9, 5.0, 5.2, 4.8, 5.1},
	}
	res, err := sprint.PMaxT(x, []int{0, 0, 0, 1, 1, 1}, 2, sprint.Options{B: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Total() <= 0 {
		t.Error("profile not populated")
	}
	if res.NProcs != 2 {
		t.Errorf("NProcs = %d", res.NProcs)
	}
	if math.IsNaN(res.Stat[0]) {
		t.Error("statistic missing")
	}
}
