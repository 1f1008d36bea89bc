package sprint_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"sprint"
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

func TestPcorPublicAPI(t *testing.T) {
	x := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{4, 3, 2, 1},
	}
	m, err := sprint.Pcor(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0][1]-1) > 1e-12 || math.Abs(m[0][2]+1) > 1e-12 {
		t.Errorf("correlations = %v", m)
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
