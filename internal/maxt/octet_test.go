package maxt

import (
	"fmt"
	"math"
	"testing"

	"sprint/internal/matrix"
	"sprint/internal/perm"
	"sprint/internal/stat"
)

// prepUnderISA builds the prep over m with its kernel and counter on isa.
func prepUnderISA(t testing.TB, isa stat.KernelISA, m matrix.Matrix, d *stat.Design) *Prep {
	t.Helper()
	before := stat.ActiveKernelISA()
	defer stat.SetKernelISA(before.String())
	if _, err := stat.SetKernelISA(isa.String()); err != nil {
		t.Fatal(err)
	}
	p, err := NewPrepMatrix(m, d, Abs, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProcessFromOctetResidues: with Valid and first at every residue mod
// 8 — so a run's lowest block starts mid-octet and its highest ends
// mid-octet, on both sides of a block line — ProcessFrom counts exactly
// what a full run counts on the rows it counts, and the full run what the
// batch-of-one oracle counts, under every ISA this CPU runs (the kernel's
// lanes and the counter's).  The two-sample kernel's octets are aligned
// only on the block grid, so a lane taken on an unaligned octet, or an
// octet read from the wrong row, shows here.
func TestProcessFromOctetResidues(t *testing.T) {
	d, err := stat.NewDesign(stat.Welch, []int{0, 1, 0, 1, 1, 0, 1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	const total = 72
	gen := perm.NewRandom(d, 4, total)
	for res := 0; res < 8; res++ {
		valid := blockRows + 8 + res
		rows := valid + 2
		m := cleanMatrix(rows, d.N, uint64(res)+11)
		for i := valid; i < rows; i++ {
			for j := range m.Row(i) {
				m.Row(i)[j] = math.NaN()
			}
		}
		for _, isa := range countISAs() {
			t.Run(fmt.Sprintf("valid=%d/%v", valid, isa), func(t *testing.T) {
				p := prepUnderISA(t, isa, m, d)
				if p.Valid != valid {
					t.Fatalf("Valid = %d, built for %d", p.Valid, valid)
				}
				want := NewCounts(rows)
				oracleProcess(p, gen, 0, total, want)
				scratch := p.NewScratch()
				for _, nb := range []int{5, 64} {
					full := NewCounts(rows)
					ProcessFrom(p, gen, 0, total, full, scratch, nb, 0)
					requireCountsEqual(t, full, want, "nb", nb)
					for _, base := range []int{0, 8, blockRows - 8, blockRows} {
						for r := 0; r < 8; r++ {
							first := base + r
							got := NewCounts(rows)
							ProcessFrom(p, gen, 0, total, got, scratch, nb, first)
							requireCountsFrom(t, p, first, got, full, "nb", nb)
						}
					}
				}
			})
		}
	}
}

// TestProcessFromZeroAllocs: ProcessFrom on a reused Scratch allocates
// nothing in steady state under every ISA this CPU runs, starting mid-
// octet and crossing a block line — the kernel's lane accumulators and
// the counter's block buffers all live in the scratch.
func TestProcessFromZeroAllocs(t *testing.T) {
	d, err := stat.NewDesign(stat.Welch, []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := perm.NewRandom(d, 9, 1<<20)
	for _, isa := range countISAs() {
		p := prepUnderISA(t, isa, cleanMatrix(2*blockRows+5, d.N, 3), d)
		s := p.NewScratch()
		c := NewCounts(p.Rows())
		ProcessFrom(p, gen, 0, 128, c, s, 64, 3) // warm
		allocs := testing.AllocsPerRun(10, func() {
			ProcessFrom(p, gen, 128, 256+5, c, s, 64, 3)
		})
		if allocs != 0 {
			t.Errorf("%v: ProcessFrom allocates %.1f objects per call in steady state, want 0", isa, allocs)
		}
	}
}
