package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sprint/internal/durable"
)

func TestCheckpointedMatchesPlainRun(t *testing.T) {
	x := synthMatrix(25, 12, 3, 17)
	lab := twoClass(6, 6)
	for _, fss := range []string{"y", "n"} {
		opt := Options{B: 200, Seed: 3, FixedSeedSampling: fss}
		plain, err := collective(x, lab, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		var saves int
		// The window of 37 rounds up to one kernel batch.
		ck, err := RunMatrix(mat(x), lab, opt, RunControl{Every: 37, Save: func(c *Checkpoint) error {
			saves++
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		// Four windows; the one that completes the run is not saved.
		if want := (200+DefaultBatchSize-1)/DefaultBatchSize - 1; saves != want {
			t.Errorf("fss=%s: %d saves, want %d", fss, saves, want)
		}
		resultsEqual(t, "checkpointed-vs-plain/"+fss, plain, ck)
	}
}

func TestCheckpointResumeAfterInterruption(t *testing.T) {
	x := synthMatrix(20, 12, 2, 23)
	lab := twoClass(6, 6)
	for _, fss := range []string{"y", "n"} {
		opt := Options{B: 150, Seed: 9, FixedSeedSampling: fss}
		plain, err := collective(x, lab, 1, opt)
		if err != nil {
			t.Fatal(err)
		}

		// First run "crashes" after the second save: the save callback
		// persists the snapshot and then errors out.
		boom := errors.New("simulated node failure")
		var persisted *Checkpoint
		var calls int
		_, err = RunMatrix(mat(x), lab, opt, RunControl{Every: 64, Save: func(c *Checkpoint) error {
			calls++
			persisted = c
			if calls == 2 {
				return boom
			}
			return nil
		}})
		if !errors.Is(err, boom) {
			t.Fatalf("fss=%s: interruption error = %v", fss, err)
		}
		if persisted == nil || persisted.Next != 128 {
			t.Fatalf("fss=%s: persisted checkpoint at %v, want Next=128", fss, persisted)
		}

		// Serialise and deserialise, as a real deployment would.
		var buf bytes.Buffer
		if err := persisted.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}

		resumed, err := RunMatrix(mat(x), lab, opt, RunControl{Resume: restored, Every: 64})
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "resumed-vs-plain/"+fss, plain, resumed)
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	x := synthMatrix(10, 12, 1, 5)
	lab := twoClass(6, 6)
	opt := Options{B: 100, Seed: 1}
	var saved *Checkpoint
	if _, err := RunMatrix(mat(x), lab, opt, RunControl{Every: 50, Save: func(c *Checkpoint) error {
		saved = c
		return nil
	}}); err != nil {
		t.Fatal(err)
	}

	// Different seed -> different permutation stream -> must refuse.
	optSeed := opt
	optSeed.Seed = 2
	if _, err := RunMatrix(mat(x), lab, optSeed, RunControl{Resume: saved}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("seed change accepted: %v", err)
	}
	// Different data -> must refuse.
	x2 := synthMatrix(10, 12, 1, 6)
	if _, err := RunMatrix(mat(x2), lab, opt, RunControl{Resume: saved}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("data change accepted: %v", err)
	}
	// Different B -> must refuse.
	optB := opt
	optB.B = 400
	if _, err := RunMatrix(mat(x), lab, optB, RunControl{Resume: saved}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("B change accepted: %v", err)
	}
}

func TestCheckpointValidation(t *testing.T) {
	x := synthMatrix(5, 12, 1, 5)
	lab := twoClass(6, 6)
	if _, err := RunMatrix(mat(nil), lab, Options{B: 10}, RunControl{Every: 5}); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := RunMatrix(mat(x), lab, Options{Test: "bogus"}, RunControl{Every: 5}); err == nil {
		t.Error("bad options accepted")
	}

	// The one resume rule: every case gets the same verdict from
	// Plan.Resume — which the coordinator and a worker's retained-prefix
	// lookup call directly — from RunPrepared in the case's mode and,
	// for exact plans, from RunShard.
	data, seqOpt := seqTestData(t, 11)
	// Two stop-grid windows, so the sequential run saves one checkpoint.
	seqOpt.B = 2 * DefaultSeqWindow
	exactOpt := seqOpt
	exactOpt.Mode = ModeExact
	p, err := Prepare(mat(data.X), data.Labels, exactOpt)
	if err != nil {
		t.Fatal(err)
	}
	first := func(opt Options, run func(RunControl) error) *Checkpoint {
		var ck *Checkpoint
		err := run(RunControl{NProcs: 2, Every: 1024, Save: func(c *Checkpoint) error {
			if ck == nil {
				ck = c
			}
			return nil
		}})
		if err != nil || ck == nil {
			t.Fatalf("%s run: err %v, checkpoint %v", opt.Mode, err, ck)
		}
		return ck
	}
	whole := func(opt Options) func(RunControl) error {
		return func(ctl RunControl) error { _, err := RunPrepared(p, opt, ctl); return err }
	}
	exactCk := first(exactOpt, whole(exactOpt))
	seqCk := first(seqOpt, whole(seqOpt))
	const shardLo, shardHi = 1024, 3072
	shardCk := first(exactOpt, func(ctl RunControl) error {
		_, err := RunShard(p, exactOpt, shardLo, shardHi, ctl)
		return err
	})
	if seqCk.BEff == nil || shardCk.Next-shardCk.Done != shardLo {
		t.Fatalf("fixtures: sequential BEff %v, shard counts from %d", seqCk.BEff, shardCk.Next-shardCk.Done)
	}
	edit := func(c *Checkpoint, f func(*Checkpoint)) *Checkpoint {
		c2 := *c
		f(&c2)
		return &c2
	}
	rows := len(data.X)
	for _, tc := range []struct {
		name string
		ck   *Checkpoint
		seq  bool
		lo   int64
		ok   bool
	}{
		{"exact prefix", exactCk, false, 0, true},
		{"sequential prefix", seqCk, true, 0, true},
		{"shard partial at lo", shardCk, false, shardLo, true},
		{"partial to a whole run", shardCk, false, 0, false},
		{"partial to another shard", shardCk, false, shardLo + 1, false},
		{"fingerprint", edit(exactCk, func(c *Checkpoint) { c.Fingerprint++ }), false, 0, false},
		{"TotalB", edit(exactCk, func(c *Checkpoint) { c.TotalB++ }), false, 0, false},
		{"Complete", edit(exactCk, func(c *Checkpoint) { c.Complete = true }), false, 0, false},
		{"rows", edit(exactCk, func(c *Checkpoint) { c.Raw, c.Adj = c.Raw[1:], c.Adj[1:] }), false, 0, false},
		{"exact to sequential", exactCk, true, 0, false},
		{"sequential to exact", seqCk, false, 0, false},
		{"BEff on exact", edit(exactCk, func(c *Checkpoint) { c.BEff = make([]int64, rows) }), false, 0, false},
		{"BEff short", edit(seqCk, func(c *Checkpoint) { c.BEff = c.BEff[1:] }), true, 0, false},
		{"BEff missing", edit(seqCk, func(c *Checkpoint) { c.BEff = nil }), true, 0, false},
	} {
		opt := exactOpt
		if tc.seq {
			opt = seqOpt
		}
		plan, err := PlanRun(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		hi := plan.TotalB
		if tc.lo > 0 {
			hi = shardHi
		}
		verdict := func(path string, err error) {
			if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrCheckpointMismatch)) {
				t.Errorf("%s: %s returned %v, want accepted %v", tc.name, path, err, tc.ok)
			}
		}
		_, _, err = plan.Resume(tc.ck, tc.lo, hi)
		verdict("Plan.Resume", err)
		if tc.lo == 0 {
			_, err = RunPrepared(p, opt, RunControl{NProcs: 2, Every: 1024, Resume: tc.ck})
			verdict("RunPrepared", err)
		}
		if !tc.seq {
			_, err = RunShard(p, opt, tc.lo, hi, RunControl{NProcs: 2, Resume: tc.ck})
			verdict("RunShard", err)
		}
	}
}

// goldenCheckpoints are the two records of testdata/counts_v1.bin: a
// partial exact shard over a complete enumeration, and a sequential run's
// checkpoint with its b_eff vector.
func goldenCheckpoints() []*Checkpoint {
	return []*Checkpoint{
		{Fingerprint: 0x0123456789abcdef, TotalB: 12870, Complete: true, Next: 7000, Done: 2000, Hi: 9000,
			Raw: []int64{0, 1, 2000}, Adj: []int64{5, 1999, 2000}},
		{Fingerprint: 0xfedcba9876543210, TotalB: 1000000, Next: 4096, Done: 4096, Hi: 1000000,
			Raw: []int64{17, 3, 0, 4096}, Adj: []int64{20, 3, 1, 4096}, BEff: []int64{2048, 0, 0, 1024}},
	}
}

// TestCountsRecordGolden pins the counts record byte for byte: the
// checked-in records decode to goldenCheckpoints and re-encode to the
// same bytes, with the header fields where the layout puts them.
func TestCountsRecordGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "counts_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, c := range goldenCheckpoints() {
		got = c.AppendRecord(got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drifted from testdata/counts_v1.bin:\n got  %x\n want %x", got, want)
	}
	off := 0
	for i, c := range goldenCheckpoints() {
		p, size, err := durable.NextFrame(want[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rows, vecs, last := len(c.Raw), 2, c.Adj
		if c.BEff != nil {
			vecs, last = 3, c.BEff
		}
		le := binary.LittleEndian
		if p[0] != 1 || le.Uint64(p[2:]) != c.Fingerprint || int64(le.Uint64(p[34:])) != c.Hi ||
			int(le.Uint32(p[42:])) != rows || len(p) != 46+8*vecs*rows ||
			int64(le.Uint64(p[46:])) != c.Raw[0] || int64(le.Uint64(p[len(p)-8:])) != last[rows-1] {
			t.Fatalf("record %d: header or vectors out of place: %x", i, p)
		}
		d, err := DecodeRecord(want[off : off+size])
		if err != nil || !reflect.DeepEqual(d, c) {
			t.Fatalf("record %d decoded to %+v, %v; want %+v", i, d, err, c)
		}
		off += size
	}
	// Every b_eff entry lies in [0, done]: a frozen row froze at a
	// permutation count the record's counts cover.
	for _, b := range []int64{-1, 4097} {
		c := goldenCheckpoints()[1]
		c.BEff[1] = b
		if _, err := DecodeRecord(c.AppendRecord(nil)); !errors.Is(err, durable.ErrCorrupt) {
			t.Errorf("b_eff %d with done %d decoded: %v", b, c.Done, err)
		}
	}
}

// FuzzCountsRecord drives DecodeRecord with arbitrary bytes, both as a
// whole frame and framed as a payload, so the header, length and range
// checks see inputs the CRC would otherwise stop.  Decoding never panics;
// an accepted record re-encodes to the same bytes, and every single-byte
// flip and every truncation of it is rejected as corrupt.
func FuzzCountsRecord(f *testing.F) {
	for _, c := range goldenCheckpoints() {
		rec := c.AppendRecord(nil)
		f.Add(rec)
		f.Add(rec[durable.FrameHeader:])
	}
	f.Add([]byte("not a counts record"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, durable.AppendFrame(nil, data)} {
			c, err := DecodeRecord(rec)
			if err != nil {
				if !errors.Is(err, durable.ErrCorrupt) {
					t.Fatalf("rejected without ErrCorrupt: %v", err)
				}
				continue
			}
			for i, b := range c.BEff {
				if b < 0 || b > c.Done {
					t.Fatalf("accepted b_eff[%d] = %d outside [0, done %d]", i, b, c.Done)
				}
			}
			if again := c.AppendRecord(nil); !bytes.Equal(again, rec) {
				t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", rec, again)
			}
			for off := range rec {
				mut := bytes.Clone(rec)
				mut[off] ^= 0xff
				if _, err := DecodeRecord(mut); !errors.Is(err, durable.ErrCorrupt) {
					t.Fatalf("flip@%d accepted (%v)", off, err)
				}
				if _, err := DecodeRecord(rec[:off]); !errors.Is(err, durable.ErrCorrupt) {
					t.Fatalf("cut@%d accepted (%v)", off, err)
				}
			}
		}
	})
}
