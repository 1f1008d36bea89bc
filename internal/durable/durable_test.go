package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sprint/internal/faultinject"
)

// install activates a fault schedule for the rest of the test.  The
// injector is process-global, so these tests never run in parallel.
func install(t *testing.T, spec string) {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(inj)
	t.Cleanup(faultinject.Disable)
}

// seed writes want to a fresh file and returns its path.
func seed(t *testing.T, want string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func assertContent(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", path, got, want)
	}
}

func assertNoTemp(t *testing.T, path string) {
	t.Helper()
	left, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := seed(t, "old bytes")
	if err := WriteFileAtomic(path, Bytes([]byte("new bytes")), "t.write"); err != nil {
		t.Fatal(err)
	}
	assertContent(t, path, "new bytes")
	assertNoTemp(t, path)
}

func TestWriteFileAtomicInjectedErrorKeepsOld(t *testing.T) {
	path := seed(t, "old bytes")
	install(t, "t.write:error")
	err := WriteFileAtomic(path, Bytes([]byte("new bytes")), "t.write")
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	assertContent(t, path, "old bytes")
	assertNoTemp(t, path)
}

func TestWriteFileAtomicTornLeavesTruncatedBody(t *testing.T) {
	path := seed(t, "old bytes")
	install(t, "t.write:torn")
	err := WriteFileAtomic(path, Bytes([]byte("0123456789")), "t.write")
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	assertContent(t, path, "01234")
	assertNoTemp(t, path)
}

func TestReadFileAppliesReadFaults(t *testing.T) {
	const body = "abcdefghijkl"
	path := seed(t, body)

	install(t, "t.read:shortread")
	got, err := ReadFile(path, "t.read")
	if err != nil || string(got) != body[:len(body)/2] {
		t.Fatalf("shortread: %q, %v", got, err)
	}

	install(t, "t.read:corrupt")
	got, err = ReadFile(path, "t.read")
	if err != nil || len(got) != len(body) || bytes.Equal(got, []byte(body)) {
		t.Fatalf("corrupt: %q, %v", got, err)
	}
	// Another site's reads stay clean.
	if got, err = ReadFile(path, "other.read"); err != nil || string(got) != body {
		t.Fatalf("unfaulted site: %q, %v", got, err)
	}
}

func TestQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := Quarantine(path); err != nil {
		t.Fatalf("missing path: %v", err)
	}
	for _, body := range []string{"first", "second"} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Quarantine(path); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("quarantined file still at %s: %v", path, err)
		}
		assertContent(t, path+".corrupt", body)
	}
}
