package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTableOutputsContainPaperAndModel(t *testing.T) {
	for i, marker := range map[int]string{
		1: "HECToR", 2: "ECDF", 3: "Amazon EC2", 4: "Ness", 5: "Quad-core",
	} {
		var out bytes.Buffer
		if err := run([]string{"-table", itoa(i)}, &out); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		s := out.String()
		for _, want := range []string{marker, "[paper, measured]", "[model, this reproduction]", "[paper vs model]"} {
			if !strings.Contains(s, want) {
				t.Errorf("table %d missing %q", i, want)
			}
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestTableIValuesPresent(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	// The paper block must carry the published anchor cells.
	for _, cell := range []string{"795.600", "1.633", "313.09", "487.20"} {
		if !strings.Contains(out.String(), cell) {
			t.Errorf("table 1 missing paper cell %s", cell)
		}
	}
}

func TestTableVI(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "6"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table VI", "36612 x 76", "73224 x 76", "73.18", "591.48"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 6 missing %q", want)
		}
	}
}

func TestFigure3(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Count(s, "Figure 3") != 2 {
		t.Errorf("expected paper and model figures:\n%s", s)
	}
	if !strings.Contains(s, "legend:") || !strings.Contains(s, "* optimal") {
		t.Error("figure missing legend")
	}
}

func TestMeasuredModeRunsRealParallel(t *testing.T) {
	var out bytes.Buffer
	// A tiny workload keeps the real sweep fast in CI.
	if err := run([]string{"-measure", "-genes", "60", "-perms", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Measured on this machine") {
		t.Errorf("measured table missing:\n%s", s)
	}
	if !strings.Contains(s, "real goroutine-parallel pmaxT") {
		t.Error("measured table title missing workload description")
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestJSONServeEmitsSweep(t *testing.T) {
	var out bytes.Buffer
	// One tiny load level keeps the real serving sweep fast in CI.
	if err := run([]string{"-json-serve", "-genes", "60", "-serve-seconds", "0.2", "-serve-levels", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		CapacityPerS float64 `json:"capacity_jobs_per_s"`
		Levels       []struct {
			Multiplier float64 `json:"multiplier"`
			Offered    int64   `json:"offered"`
			Accepted   int64   `json:"accepted"`
			Shed       int64   `json:"shed_429"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.CapacityPerS <= 0 {
		t.Fatalf("capacity %g", doc.CapacityPerS)
	}
	if len(doc.Levels) != 1 || doc.Levels[0].Multiplier != 1 {
		t.Fatalf("levels %+v", doc.Levels)
	}
	if lvl := doc.Levels[0]; lvl.Offered == 0 || lvl.Accepted+lvl.Shed != lvl.Offered {
		t.Fatalf("offered %d != accepted %d + shed %d", lvl.Offered, lvl.Accepted, lvl.Shed)
	}
}

func TestParseServeLevels(t *testing.T) {
	got, err := parseServeLevels("1, 2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "x"} {
		if _, err := parseServeLevels(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestJSONDistEmitsSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-json-dist", "-genes", "60", "-dist-perms", "800"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Perms  int64 `json:"perms"`
		Levels []struct {
			Workers          int  `json:"workers"`
			BitwiseIdentical bool `json:"bitwise_identical"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("json-dist output is not JSON: %v", err)
	}
	if doc.Perms != 800 || len(doc.Levels) != 3 {
		t.Fatalf("perms=%d levels=%d, want 800/3", doc.Perms, len(doc.Levels))
	}
	for _, lv := range doc.Levels {
		if !lv.BitwiseIdentical {
			t.Errorf("%d-worker level not bitwise identical", lv.Workers)
		}
	}
}

func TestJSONRecoverEmitsSweep(t *testing.T) {
	var out bytes.Buffer
	// Moderate perms keep each interrupted job alive past the first
	// checkpoint window but finish the sweep quickly in CI.
	if err := run([]string{"-json-recover", "-genes", "100", "-recover-perms", "100000"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Perms  int64 `json:"perms"`
		Levels []struct {
			Jobs             int     `json:"jobs"`
			JournalBytes     int64   `json:"journal_bytes"`
			RecoveryS        float64 `json:"recovery_s"`
			JobsReplayed     int64   `json:"jobs_replayed"`
			BitwiseIdentical bool    `json:"bitwise_identical"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("json-recover output is not JSON: %v", err)
	}
	if doc.Perms != 100000 || len(doc.Levels) != 3 {
		t.Fatalf("perms=%d levels=%d, want 100000/3", doc.Perms, len(doc.Levels))
	}
	for _, lv := range doc.Levels {
		if !lv.BitwiseIdentical {
			t.Errorf("%d-job level not bitwise identical", lv.Jobs)
		}
		if lv.JournalBytes == 0 {
			t.Errorf("%d-job level recorded an empty journal", lv.Jobs)
		}
		if lv.JobsReplayed < int64(lv.Jobs) {
			t.Errorf("%d-job level replayed only %d jobs", lv.Jobs, lv.JobsReplayed)
		}
	}
}
