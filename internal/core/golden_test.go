package core

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seq_golden.txt from the current engine")

// seqDigest hashes the bits a sequential run reports: B, PlannedB and,
// per row, RawP, AdjP and BEff.
func seqDigest(r *Result) string {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	put(uint64(r.B))
	put(uint64(r.PlannedB))
	for i := range r.RawP {
		put(math.Float64bits(r.RawP[i]))
		put(math.Float64bits(r.AdjP[i]))
		put(uint64(r.BEff[i]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSequentialGolden holds the sequential engine to digests recorded
// from an earlier engine: there is no independent reference for
// early-stopped bits, so the recorded ones are the reference.  It covers
// rank counts, window lengths (0 selects DefaultSeqWindow) and one
// cancel-and-resume cut.  Run with -update to re-record.
func TestSequentialGolden(t *testing.T) {
	var lines []string
	for _, seed := range []uint64{3, 41, 77} {
		data, opt := seqTestData(t, seed)
		for _, nprocs := range []int{1, 2, 3} {
			for _, every := range []int64{0, 64, 1000, 4096} {
				res, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{NProcs: nprocs, Every: every})
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("seed=%d nprocs=%d every=%d b=%d %s", seed, nprocs, every, res.B, seqDigest(res)))
			}
		}
		// Cancel after the second checkpoint, resume at another rank count.
		ctx, cancel := context.WithCancel(context.Background())
		var last *Checkpoint
		_, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{Ctx: ctx, NProcs: 2, Every: 1000,
			Save: func(c *Checkpoint) error {
				if last = c; c.Done >= 2000 {
					cancel()
				}
				return nil
			}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: cut run returned %v, want context.Canceled", seed, err)
		}
		res, err := RunMatrix(mat(data.X), data.Labels, opt, RunControl{NProcs: 3, Every: 1000, Resume: last})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("seed=%d cut=%d every=1000 b=%d %s", seed, last.Next, res.B, seqDigest(res)))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "seq_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("sequential bits drifted from %s:\n got:\n%s want:\n%s", path, got, want)
	}
}
