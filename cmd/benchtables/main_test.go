package main

import (
	"bytes"
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
