package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"sprint/internal/core"
	"sprint/internal/httpapi"
	"sprint/internal/matrix"
	"sprint/internal/microarray"
	"sprint/internal/rng"
)

// This file turns (-seed, workload) into everything the daemons are
// sent: the matrix, its .spb and JSON encodings, per-job seeds, balanced
// relabellings and never-seen matrix variants.  The same seed gives the
// same inputs; the daemons receive only these generated inputs.

// inputs holds one workload's generated data.
type inputs struct {
	w      *workload
	seed   uint64
	x      matrix.Matrix // the base matrix, row-major
	labels []int         // half 0, half 1, in column order
	spb    []byte        // the base matrix as row-major .spb
	flat   *flatBody     // pre-rendered x_flat body; ingest_json only

	mu     sync.Mutex
	seen   map[string]bool // relabellings handed out so far
	relabs map[int][]int   // relabelling by job index
}

// newInputs generates the workload's data.  The matrix depends on the
// seed and the shape only, so workloads of one shape (batch_exact and
// cluster_exact above all) share it exactly.
func newInputs(w *workload, seed uint64) (*inputs, error) {
	gen := microarray.PaperDataset()
	gen.Genes, gen.Samples = w.rows, w.cols
	gen.Seed = rng.Mix64(seed ^ 0xda7a5e7)
	data, err := microarray.Generate(gen)
	if err != nil {
		return nil, err
	}
	x, err := data.Matrix()
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, x: x, labels: data.Labels,
		seen: make(map[string]bool), relabs: make(map[int][]int)}
	if in.spb, err = matrix.EncodeBytes(x, nil, nil, matrix.RowMajor); err != nil {
		return nil, err
	}
	if w.kind == opIngestJSON {
		in.flat = newFlatBody(x, in.labels)
	}
	return in, nil
}

// jobSeed is the permutation seed of job i.  It depends on the run seed
// and the index only, so batch_exact and cluster_exact submit the same
// analyses.
func (in *inputs) jobSeed(i int) uint64 {
	return rng.Mix64(in.seed + uint64(i)*0x9e3779b97f4a7c15 + 1)
}

// options returns job i's option block.
func (in *inputs) options(i int) httpapi.OptionsJSON {
	o := in.w.opt
	o.Seed = in.jobSeed(i)
	return o
}

// jobLabels returns the labels job i runs under: the observed labelling,
// or — on relabel workloads — a balanced relabelling distinct from every
// other job's.
func (in *inputs) jobLabels(i int) []int {
	if !in.w.relabel {
		return in.labels
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if l, ok := in.relabs[i]; ok {
		return l
	}
	for salt := uint64(0); ; salt++ {
		l := balancedRelabelling(in.labels, rng.Mix64(in.jobSeed(i)^salt<<32))
		key := fmt.Sprint(l)
		if !in.seen[key] {
			in.seen[key] = true
			in.relabs[i] = l
			return l
		}
	}
}

// balancedRelabelling shuffles labels with a generator seeded by seed:
// class sizes are preserved, the assignment of columns to classes is not.
func balancedRelabelling(labels []int, seed uint64) []int {
	out := append([]int(nil), labels...)
	src := rng.New(seed)
	src.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// variant returns the one cell (row-major index) and value by which op
// i's never-seen matrix differs from the base matrix.  Two ops differ
// either in the cell or, on the same cell, in the value.
func (in *inputs) variant(i int) (cell int, v float64) {
	cell = int(rng.Mix64(in.seed^uint64(i)*0xc2b2ae3d27d4eb4f) % uint64(len(in.x.Data)))
	return cell, in.x.Data[cell] + float64(i+1)
}

// variantMatrix materialises op i's matrix (for the in-process reference).
func (in *inputs) variantMatrix(i int) matrix.Matrix {
	m := in.x.Clone()
	cell, v := in.variant(i)
	m.Data[cell] = v
	return m
}

// spbHeaderSize is the fixed .spb header; the float64 payload follows it
// and a Digest64 of every preceding byte ends the stream.
const spbHeaderSize = 32

// variantSPB returns op i's matrix as .spb: the base encoding with one
// payload cell and the trailing digest rewritten.
func (in *inputs) variantSPB(i int) []byte {
	out := append([]byte(nil), in.spb...)
	cell, v := in.variant(i)
	binary.LittleEndian.PutUint64(out[spbHeaderSize+8*cell:], math.Float64bits(v))
	binary.LittleEndian.PutUint64(out[len(out)-8:], matrix.Digest64(out[:len(out)-8]))
	return out
}

// datasetJobBody is the POST /v1/jobs body of a job against a registered
// dataset.
func (in *inputs) datasetJobBody(datasetID string, i int) ([]byte, error) {
	return json.Marshal(httpapi.SubmitRequest{
		Dataset: httpapi.DatasetJSON{DatasetID: datasetID, Labels: in.jobLabels(i)},
		Options: in.options(i),
	})
}

// flatJobBody is op i's inline x_flat submission.
func (in *inputs) flatJobBody(i int) ([]byte, error) {
	opts, err := json.Marshal(in.options(i))
	if err != nil {
		return nil, err
	}
	cell, v := in.variant(i)
	row, col := cell/in.x.Cols, cell%in.x.Cols
	return in.flat.build(col*in.x.Rows+row, v, opts), nil
}

// coreOptions converts job i's wire options into the engine's, exactly
// as the server does.
func (in *inputs) coreOptions(i int) core.Options {
	o := in.options(i)
	return core.Options{
		Test: o.Test, Side: o.Side, B: o.B, Seed: o.Seed,
		Mode: o.Mode, SeqAlpha: o.TargetAlpha, SeqTolerance: o.PTolerance,
	}
}

// flatBody is a pre-rendered x_flat submission split at its cells, so a
// body differing from it in one cell is three copies and one float
// format instead of a full encode of 463 752 numbers.  build produces
// byte for byte what encoding/json produces for the same
// httpapi.SubmitRequest.
type flatBody struct {
	head  []byte // `{"dataset":{"x_flat":[`
	cells []byte // the column-major cells, comma-separated
	// start[k] is the offset of cell k's text in cells; start[n] is one
	// past the end, as if a comma followed the last cell.
	start []int
	mid   []byte // `],"genes":G,"samples":S,"labels":[...]},"options":`
}

func newFlatBody(x matrix.Matrix, labels []int) *flatBody {
	n := x.Rows * x.Cols
	f := &flatBody{
		head:  []byte(`{"dataset":{"x_flat":[`),
		cells: make([]byte, 0, n*20),
		start: make([]int, 0, n+1),
	}
	for j := 0; j < x.Cols; j++ {
		for i := 0; i < x.Rows; i++ {
			if len(f.start) > 0 {
				f.cells = append(f.cells, ',')
			}
			f.start = append(f.start, len(f.cells))
			f.cells = strconv.AppendFloat(f.cells, x.At(i, j), 'g', -1, 64)
		}
	}
	f.start = append(f.start, len(f.cells)+1)
	lab, _ := json.Marshal(labels) // a []int cannot fail to encode
	f.mid = fmt.Appendf(nil, `],"genes":%d,"samples":%d,"labels":%s},"options":`, x.Rows, x.Cols, lab)
	return f
}

// build renders the body with column-major cell k replaced by v and the
// given options block.
func (f *flatBody) build(k int, v float64, opts []byte) []byte {
	out := make([]byte, 0, len(f.head)+len(f.cells)+32+len(f.mid)+len(opts)+1)
	out = append(out, f.head...)
	out = append(out, f.cells[:f.start[k]]...)
	out = strconv.AppendFloat(out, v, 'g', -1, 64)
	out = append(out, f.cells[f.start[k+1]-1:]...)
	out = append(out, f.mid...)
	out = append(out, opts...)
	return append(out, '}')
}
