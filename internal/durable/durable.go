// Package durable is the one place the daemon writes files it must be
// able to trust after a crash: checkpoints, the job journal, retained
// shard results and dataset mirrors all go through WriteFileAtomic,
// which makes the full temp-file → write → fsync(file) → rename →
// fsync(dir) dance, so a kill -9 at any instruction leaves either the
// complete old file or the complete new file — never a torn one.  All
// but the dataset mirrors (which carry their own format) also share one
// CRC-checked record frame (frame.go).  Every entry point consults
// internal/faultinject first, which is how the chaos suite drives
// torn-write, short-read, disk-full and corrupt-byte schedules through
// the exact code paths production uses.
package durable

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sprint/internal/faultinject"
)

// WriteFileAtomic writes a file to path atomically and durably: write
// streams the file's parts into a unique temp file in path's directory,
// which is fsynced and renamed over path, then the directory is fsynced
// so the rename itself survives a crash.  site names the faultinject
// choke point ("ckpt.write", "journal.compact", "dataset.write", ...);
// while a fault schedule is installed the parts are first gathered into
// one buffer, so a torn or corrupt fault cuts or flips the whole file
// exactly as it would a single slice.
func WriteFileAtomic(path string, write func(w io.Writer) error, site string) error {
	if err := faultinject.Before(site, path); err != nil {
		return err
	}
	if faultinject.Active() {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		data, fault := faultinject.MutateWrite(site, buf.Bytes())
		if fault == faultinject.WriteTorn {
			// Simulate the crash-mid-write no atomic rename allows: the
			// truncated body lands at the FINAL path, then the writer
			// dies.  This is what the framed read paths must survive.
			_ = os.WriteFile(path, data, 0o644)
			return fmt.Errorf("durable: %s %s: %w", site, path, faultinject.ErrInjected)
		}
		write = Bytes(data)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return FsyncDir(dir)
}

// Bytes is the WriteFileAtomic body of a file held in one slice.
func Bytes(data []byte) func(w io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// ReadFile reads path whole, applying the fault schedule's read faults
// (short read, corrupt byte) at site before returning.
func ReadFile(path, site string) ([]byte, error) {
	if err := faultinject.Before(site, path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return faultinject.MutateRead(site, data), nil
}

// Quarantine moves a file detected as corrupt aside to "<path>.corrupt"
// (replacing any previous quarantine of the same path) so it never
// poisons a read again but stays available for inspection.  A missing
// file is not an error.
func Quarantine(path string) error {
	err := os.Rename(path, path+".corrupt")
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// FsyncDir fsyncs a directory so a rename or unlink inside it is
// durable.  Filesystems that refuse directory fsync (some network
// mounts) degrade silently: the rename still happened.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	// Sync errors on directories are advisory (EINVAL on some
	// filesystems); the atomic rename has already happened.
	_ = d.Sync()
	return nil
}
