package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestStartAndGracefulStop(t *testing.T) {
	var out bytes.Buffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4"}, &out, stop)
	}()
	time.Sleep(100 * time.Millisecond) // let the listener come up
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	for _, want := range []string{"listening on", "shutting down", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output %q missing %q", out.String(), want)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out, nil); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

// TestFlagsPinned holds the daemon's whole flag surface.  Adding a flag
// means editing this list in the same change.
func TestFlagsPinned(t *testing.T) {
	want := []string{
		"addr", "advertise", "cluster-workers", "dist-min-b", "every",
		"faults", "interactive-max-b", "join", "journal-dir",
		"log", "max-body", "max-queue-wait", "metrics-interval", "nprocs",
		"pprof-addr", "queue", "role", "shard-nprocs", "shards-per-worker",
		"tenant-limits", "workers",
	}
	var got []string
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("pmaxtd flags = %q\nwant %q", got, want)
	}
}

// TestShutdownFlushesFinalSnapshot: the exit path must emit exactly one
// final metrics snapshot through the structured log, after the drain.
func TestShutdownFlushesFinalSnapshot(t *testing.T) {
	logPath := t.TempDir() + "/pmaxtd.log"
	var out bytes.Buffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1",
			"-log", logPath, "-metrics-interval", "0"}, &out, stop)
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	if !strings.Contains(out.String(), "final metrics snapshot:") {
		t.Fatalf("stdout %q missing final snapshot line", out.String())
	}
	logText, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := 0
	for _, line := range strings.Split(string(logText), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "metrics_snapshot" {
			continue
		}
		snapshots++
		// Process metrics register at boot, so even an idle daemon's
		// final snapshot carries samples — none may be dropped on exit.
		if n, ok := rec["samples"].(float64); !ok || n < 1 {
			t.Fatalf("final snapshot carries %v samples", rec["samples"])
		}
	}
	if snapshots != 1 {
		t.Fatalf("metrics_snapshot logged %d times, want exactly 1 (interval=0)", snapshots)
	}
}
