// Package microarray synthesises and serialises gene-expression datasets
// with the shapes used in the paper's evaluation: a pre-processed
// expression matrix of rows = genes and columns = samples, plus a class
// label per sample.
//
// The paper benchmarks a 6102×76 microarray (Tables I–V) and exon-array
// sized matrices of 36612×76 and 73224×76 (Table VI).  Those datasets are
// not public; the generator here produces matrices that are statistically
// equivalent for timing purposes (identical dimensions; log-normal-like
// intensity distributions) and *verifiable* for correctness purposes: a
// configurable fraction of genes carries a known shift between classes, so
// analyses must rank exactly those genes first.
package microarray

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sprint/internal/rng"
)

// Dataset is an expression matrix with its sample design.
type Dataset struct {
	// X is the expression matrix, rows = genes, columns = samples.
	X [][]float64
	// Labels assigns each sample column a class.
	Labels []int
	// GeneNames names the rows; generated datasets use g000001-style
	// names with a ".DE" suffix on truly differential genes.
	GeneNames []string
	// Differential flags the rows generated with a real class effect.
	Differential []bool
}

// Rows and Cols report the matrix dimensions.
func (d *Dataset) Rows() int { return len(d.X) }

// Cols reports the number of sample columns.
func (d *Dataset) Cols() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// GenOptions configures the synthetic generator.
type GenOptions struct {
	Genes   int // number of rows
	Samples int // number of columns
	Classes int // number of classes (2 for t-type tests)
	// DiffFraction is the fraction of genes with a true class effect.
	DiffFraction float64
	// EffectSize is the shift (in within-class standard deviations)
	// applied to differential genes in class 1 (and scaled for higher
	// classes).
	EffectSize float64
	// MissingRate introduces missing values (NaN) uniformly at random.
	MissingRate float64
	// Paired lays samples out as consecutive (0,1) pairs for pairt.
	Paired bool
	// Blocked lays samples out as consecutive blocks of Classes
	// treatments for blockf.
	Blocked bool
	// Seed drives the generator; equal seeds give equal datasets.
	Seed uint64
}

// PaperDataset returns the generation options matching the paper's primary
// benchmark input: 6102 genes × 76 samples, two classes of 38.
func PaperDataset() GenOptions {
	return GenOptions{Genes: 6102, Samples: 76, Classes: 2, DiffFraction: 0.05, EffectSize: 1.5, Seed: 76}
}

// ExonDataset returns generation options for the Table VI matrices: factor
// = 6 gives 36612×76, factor = 12 gives 73224×76.
func ExonDataset(factor int) GenOptions {
	o := PaperDataset()
	o.Genes = 6102 * factor
	return o
}

// Generate builds a synthetic dataset.  Expression values follow a
// log-normal-like intensity model: baseline ~ N(8, 2) per gene (log2
// scale), within-class noise ~ N(0, 1), matching the general shape of
// pre-processed microarray data.
func Generate(opt GenOptions) (*Dataset, error) {
	if opt.Genes <= 0 || opt.Samples <= 0 {
		return nil, fmt.Errorf("microarray: dimensions %dx%d must be positive", opt.Genes, opt.Samples)
	}
	if opt.Classes < 2 {
		opt.Classes = 2
	}
	if opt.Paired && opt.Blocked {
		return nil, fmt.Errorf("microarray: Paired and Blocked are mutually exclusive")
	}
	if opt.Paired && opt.Samples%2 != 0 {
		return nil, fmt.Errorf("microarray: paired design needs an even sample count, have %d", opt.Samples)
	}
	if opt.Blocked && opt.Samples%opt.Classes != 0 {
		return nil, fmt.Errorf("microarray: blocked design needs samples divisible by %d classes", opt.Classes)
	}
	if opt.DiffFraction < 0 || opt.DiffFraction > 1 {
		return nil, fmt.Errorf("microarray: DiffFraction %v out of [0,1]", opt.DiffFraction)
	}
	if opt.MissingRate < 0 || opt.MissingRate >= 1 {
		return nil, fmt.Errorf("microarray: MissingRate %v out of [0,1)", opt.MissingRate)
	}

	labels := makeLabels(opt)
	src := rng.New(opt.Seed)
	nDiff := int(math.Round(opt.DiffFraction * float64(opt.Genes)))
	d := &Dataset{
		X:            make([][]float64, opt.Genes),
		Labels:       labels,
		GeneNames:    make([]string, opt.Genes),
		Differential: make([]bool, opt.Genes),
	}
	for g := 0; g < opt.Genes; g++ {
		base := 8 + 2*src.NormFloat64()
		diff := g < nDiff
		d.Differential[g] = diff
		suffix := ""
		if diff {
			suffix = ".DE"
		}
		d.GeneNames[g] = fmt.Sprintf("g%06d%s", g+1, suffix)
		row := make([]float64, opt.Samples)
		for s := 0; s < opt.Samples; s++ {
			v := base + src.NormFloat64()
			if diff && labels[s] > 0 {
				v += float64(opt.EffectSize * float64(labels[s])) // rounded: no FMA on any target
			}
			if opt.MissingRate > 0 && src.Float64() < opt.MissingRate {
				v = math.NaN()
			}
			row[s] = v
		}
		d.X[g] = row
	}
	return d, nil
}

// makeLabels lays out the class labels for the requested design.
func makeLabels(opt GenOptions) []int {
	labels := make([]int, opt.Samples)
	switch {
	case opt.Paired:
		for j := 0; j < opt.Samples/2; j++ {
			labels[2*j], labels[2*j+1] = 0, 1
		}
	case opt.Blocked:
		k := opt.Classes
		for b := 0; b < opt.Samples/k; b++ {
			for t := 0; t < k; t++ {
				labels[b*k+t] = t
			}
		}
	default:
		// Balanced contiguous classes, like the paper's 38+38 split.
		per := opt.Samples / opt.Classes
		for s := range labels {
			c := s / per
			if c >= opt.Classes {
				c = opt.Classes - 1
			}
			labels[s] = c
		}
	}
	return labels
}

// WriteCSV serialises the dataset: a header row with sample names and class
// labels ("s01.c0", "s02.c1", ...), then one row per gene with its name and
// values.  Missing values serialise as "NA".
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	header := make([]string, d.Cols()+1)
	header[0] = "gene"
	for j := 0; j < d.Cols(); j++ {
		header[j+1] = fmt.Sprintf("s%02d.c%d", j+1, d.Labels[j])
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, d.Cols()+1)
	for i, row := range d.X {
		if d.GeneNames != nil {
			rec[0] = d.GeneNames[i]
		} else {
			rec[0] = fmt.Sprintf("g%06d", i+1)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				rec[j+1] = "NA"
			} else {
				rec[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV (or any CSV in the same
// layout).  Class labels are recovered from the ".c<k>" suffix of the
// sample names; "NA", "NaN" and empty cells are missing values.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("microarray: reading header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("microarray: header has %d columns, want >= 2", len(header))
	}
	cols := len(header) - 1
	labels := make([]int, cols)
	for j, name := range header[1:] {
		idx := strings.LastIndex(name, ".c")
		if idx < 0 {
			return nil, fmt.Errorf("microarray: sample %q has no .c<class> suffix", name)
		}
		c, err := strconv.Atoi(name[idx+2:])
		if err != nil {
			return nil, fmt.Errorf("microarray: sample %q class: %w", name, err)
		}
		labels[j] = c
	}
	d := &Dataset{Labels: labels}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("microarray: line %d: %w", line+1, err)
		}
		line++
		if len(rec) != cols+1 {
			return nil, fmt.Errorf("microarray: line %d has %d fields, want %d", line, len(rec), cols+1)
		}
		row := make([]float64, cols)
		for j, cell := range rec[1:] {
			switch cell {
			case "NA", "NaN", "":
				row[j] = math.NaN()
			default:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("microarray: line %d field %d: %w", line, j+2, err)
				}
				row[j] = v
			}
		}
		d.GeneNames = append(d.GeneNames, rec[0])
		d.Differential = append(d.Differential, strings.HasSuffix(rec[0], ".DE"))
		d.X = append(d.X, row)
	}
	if len(d.X) == 0 {
		return nil, fmt.Errorf("microarray: no data rows")
	}
	return d, nil
}

// SizeMB reports the in-memory matrix size in megabytes at 8 bytes per
// cell — double precision, the accounting under which the paper quotes
// "21.22 MB" for 36612×76 and "42.45 MB" for 73224×76 in Table VI.
func (d *Dataset) SizeMB() float64 {
	return float64(d.Rows()) * float64(d.Cols()) * 8 / (1024 * 1024)
}
