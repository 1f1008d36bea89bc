package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sprint/internal/core"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
)

// goldenDigest and goldenKey are the content address of goldenRows under
// goldenLabels and goldenOptions.  Dataset ids on disk and in journals are
// these bytes: a change to either constant orphans every mirrored
// dataset, journaled job and checkpoint a deployed daemon holds.
const (
	goldenDigest = "72df59f7e8c47829949a04fe1261bc899f514cfd5ba777e6f1306524e88bad74"
	goldenKey    = "129dcc6be12d515346cb5406bd696e9fd42033eb976916d0368fc6b33c882f29"
)

// goldenRows mixes every cell class the digest canonicalises or must
// keep apart: NaNs with three different payloads (all hash as one), -0
// next to +0's absence, ±Inf and the smallest subnormal.
func goldenRows() [][]float64 {
	return [][]float64{
		{1.5, math.NaN(), math.Copysign(0, -1), 2.25},
		{math.Float64frombits(0x7FF8000000000001), math.Inf(1), 5e-324, -3},
		{math.Float64frombits(0xFFF4000000000000), math.Inf(-1), 0.1, 1e300},
	}
}

var goldenLabels = []int{0, 0, 1, 1}

func goldenOptions() core.Options {
	opt := core.DefaultOptions()
	opt.B, opt.Seed = 100, 7
	return opt
}

// columnMajor flattens rows into R's column-major layout.
func columnMajor(x [][]float64) []float64 {
	genes, samples := len(x), len(x[0])
	flat := make([]float64, genes*samples)
	for j := 0; j < samples; j++ {
		for i := 0; i < genes; i++ {
			flat[j*genes+i] = x[i][j]
		}
	}
	return flat
}

// TestGoldenContentAddress pins the dataset digest and job key of one
// matrix reached four ways: row slices, a flat column-major buffer, a
// matrix.Matrix, and the name of the .spb mirror Submit writes.
func TestGoldenContentAddress(t *testing.T) {
	x := goldenRows()
	rowSpec := Spec{X: x, Labels: goldenLabels, Opt: goldenOptions(), NProcs: 1}
	flatSpec := Spec{XFlat: columnMajor(x), Genes: len(x), Samples: len(x[0]),
		Labels: goldenLabels, Opt: goldenOptions(), NProcs: 1}
	for name, spec := range map[string]Spec{"x": rowSpec, "x_flat": flatSpec} {
		key, digest, err := spec.contentKey()
		if err != nil {
			t.Fatal(err)
		}
		if digest != goldenDigest || key != goldenKey {
			t.Errorf("%s: digest %s key %s, want %s and %s", name, digest, key, goldenDigest, goldenKey)
		}
	}

	m, err := matrix.FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := DatasetDigest(m); got != goldenDigest {
		t.Errorf("DatasetDigest %s, want %s", got, goldenDigest)
	}
	if got, err := KeyMatrix(m, goldenLabels, goldenOptions()); err != nil || got != goldenKey {
		t.Errorf("KeyMatrix %s (%v), want %s", got, err, goldenKey)
	}

	for name, spec := range map[string]Spec{"x": rowSpec, "x_flat": flatSpec} {
		dirs := newDurableDirs(t)
		mgr, err := NewManager(dirs.config(1))
		if err != nil {
			t.Fatal(err)
		}
		st, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, mgr, st.ID)
		mgr.Close()
		if st.Key != goldenKey {
			t.Errorf("%s: Submit key %s, want %s", name, st.Key, goldenKey)
		}
		mirrors, err := filepath.Glob(filepath.Join(dirs.ds, "*.spb"))
		if err != nil {
			t.Fatal(err)
		}
		if len(mirrors) != 1 || filepath.Base(mirrors[0]) != goldenDigest+".spb" {
			t.Fatalf("%s: mirrors %v, want one %s.spb", name, mirrors, goldenDigest)
		}
		raw, err := os.ReadFile(mirrors[0])
		if err != nil {
			t.Fatal(err)
		}
		f, err := matrix.DecodeBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := DatasetDigest(f.M); got != goldenDigest {
			t.Errorf("%s: mirror decodes to digest %s, want %s", name, got, goldenDigest)
		}
	}
}

// BenchmarkDatasetDigest hashes the paper-shaped 6102×76 matrix in both
// layouts a submission can carry: row-major (a resolved matrix or a
// dataset upload) and column-major (an x_flat payload, hashed in place
// before any transpose).
func BenchmarkDatasetDigest(b *testing.B) {
	data, err := microarray.Generate(microarray.GenOptions{
		Genes: 6102, Samples: 76, Classes: 2, DiffFraction: 0.05, EffectSize: 1.5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := matrix.FromRows(data.X)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("row-major", func(b *testing.B) {
		b.SetBytes(int64(8 * len(m.Data)))
		for i := 0; i < b.N; i++ {
			DatasetDigest(m)
		}
	})
	b.Run("column-major", func(b *testing.B) {
		spec := Spec{XFlat: columnMajor(data.X), Genes: m.Rows, Samples: m.Cols, Labels: data.Labels}
		b.SetBytes(int64(8 * len(m.Data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := spec.contentKey(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// referenceDigest is the per-cell statement of DatasetDigest: the tag,
// the shape, then every cell's bits in row-major order, one SHA-256
// write per cell, with every NaN as math.NaN()'s bits.
func referenceDigest(x [][]float64) string {
	h := sha256.New()
	h.Write([]byte("sprint-dataset-v1"))
	var b [8]byte
	for _, n := range []int{len(x), len(x[0])} {
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
	for _, row := range x {
		for _, v := range row {
			bits := math.Float64bits(v)
			if math.IsNaN(v) {
				bits = math.Float64bits(math.NaN())
			}
			binary.LittleEndian.PutUint64(b[:], bits)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestContentAddressAcrossForms: the x_flat, row-slice and PutDataset
// forms of one matrix all hash to the per-cell reference digest, for
// row counts on both sides of a digest tile and the paper's shape, with
// quiet, signalling and negative NaN payloads, ±0 and ±Inf among the
// cells.
func TestContentAddressAcrossForms(t *testing.T) {
	specials := []float64{
		math.NaN(),
		math.Float64frombits(0x7FF0000000000001), // signalling
		math.Float64frombits(0xFFF8000000000123), // negative quiet, payload
		math.Float64frombits(0xFFF0000000000002), // negative signalling
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	}
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, shape := range [][2]int{{1, 5}, {7, 5}, {8, 3}, {9, 4}, {6102, 76}} {
		genes, samples := shape[0], shape[1]
		x := make([][]float64, genes)
		for i := range x {
			x[i] = make([]float64, samples)
			for j := range x[i] {
				x[i][j] = float64(i*samples+j)*0.37 - 11
				if (i*samples+j)%5 == 2 {
					x[i][j] = specials[(i+j)%len(specials)]
				}
			}
		}
		want := referenceDigest(x)
		labels := make([]int, samples)
		for j := range labels {
			labels[j] = j % 2
		}
		for name, spec := range map[string]Spec{
			"x":      {X: x, Labels: labels},
			"x_flat": {XFlat: columnMajor(x), Genes: genes, Samples: samples, Labels: labels},
		} {
			if _, got, err := spec.contentKey(); err != nil || got != want {
				t.Errorf("%dx%d %s: digest %s (%v), want %s", genes, samples, name, got, err, want)
			}
		}
		mx, err := matrix.FromRows(x)
		if err != nil {
			t.Fatal(err)
		}
		if info, _, err := m.PutDataset(mx); err != nil || info.ID != want {
			t.Errorf("%dx%d PutDataset: id %s (%v), want %s", genes, samples, info.ID, err, want)
		}
	}
}
