package core

import (
	"testing"

	"sprint/internal/microarray"
)

// BenchmarkPrepare times Prepare alone — NA scrub, rank transform,
// kernel construction, observed statistics and step-down order — on the
// paper's 6102 rows: the cold prep of a complete Wilcoxon job (16
// samples) and of a Welch job (76 samples).  It reports ns/row.
//
// Run with: go test -run '^$' -bench Prepare ./internal/core
func BenchmarkPrepare(b *testing.B) {
	for _, c := range []struct {
		name    string
		test    string
		samples int
	}{
		{"wilcoxon-6102x16", "wilcoxon", 16},
		{"welch-6102x76", "t", 76},
	} {
		gen := microarray.PaperDataset()
		gen.Samples = c.samples
		data, err := microarray.Generate(gen)
		if err != nil {
			b.Fatal(err)
		}
		x, err := data.Matrix()
		if err != nil {
			b.Fatal(err)
		}
		opt := Options{Test: c.test}
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := Prepare(x, data.Labels, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Rows), "ns/row")
		})
	}
}
