package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"
)

// ecma is the test's own CRC table: a frame is checked against it, not
// against the one the code under test uses.
var ecma = crc64.MakeTable(crc64.ECMA)

// checkFrame fails unless frame is exactly one frame around payload
// with a matching length word and CRC.
func checkFrame(t *testing.T, frame, payload []byte) {
	t.Helper()
	if len(frame) != FrameHeader+len(payload) ||
		binary.LittleEndian.Uint32(frame) != uint32(len(payload)) ||
		binary.LittleEndian.Uint64(frame[4:]) != crc64.Checksum(payload, ecma) ||
		!bytes.Equal(frame[FrameHeader:], payload) {
		t.Fatalf("accepted %d-byte payload from a frame that does not verify: % x", len(payload), frame)
	}
}

// readRecord reads the one frame the file at path must hold.
func readRecord(path string) ([]byte, error) {
	data, err := ReadFile(path, "t.read")
	if err != nil {
		return nil, err
	}
	return OnlyFrame(data)
}

// recordFile writes data to a fresh file and returns its path.
func recordFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.rec")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFramedRoundtrip pins the frame: a framed file written through
// WriteFileAtomic and read back through OnlyFrame is
// lossless, and every single-byte flip anywhere in the file, and every
// truncation of it, is reported as ErrCorrupt — never decoded.
func TestFramedRoundtrip(t *testing.T) {
	payload := []byte(`{"fp":16045690984503098046,"next":400,"raw":[1,2,3,4]}`)
	path := filepath.Join(t.TempDir(), "r.rec")
	if err := WriteFileAtomic(path, Bytes(AppendFrame(nil, payload)), "t.write"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkFrame(t, data, payload)
	got, err := readRecord(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip: %q, %v", got, err)
	}

	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x01
		if got, err := readRecord(recordFile(t, mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip@%d: got %q, err=%v, want ErrCorrupt", off, got, err)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if got, err := readRecord(recordFile(t, data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut@%d: got %q, err=%v, want ErrCorrupt", cut, got, err)
		}
	}
	// Bytes after the one frame are damage too.
	if _, err := readRecord(recordFile(t, append(data, 0))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err=%v, want ErrCorrupt", err)
	}
	// A missing file is an I/O error, not corruption.
	if _, err := readRecord(path + ".missing"); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err=%v", err)
	}
}

// TestFramedLegacyFallback: an unframed payload has no fallback — a bare
// body, whole or truncated, and the retired SPCKPT01 checkpoint layout
// are corrupt and get quarantined like any other file without a frame.
func TestFramedLegacyFallback(t *testing.T) {
	body := []byte("a gob or JSON body written without a frame")
	spckpt := append([]byte("SPCKPT01"), make([]byte, 16)...)
	binary.LittleEndian.PutUint64(spckpt[8:], uint64(len(body)))
	binary.LittleEndian.PutUint64(spckpt[16:], crc64.Checksum(body, ecma))
	spckpt = append(spckpt, body...)
	for _, data := range [][]byte{body, body[:len(body)/2], spckpt} {
		if got, err := readRecord(recordFile(t, data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unframed %d bytes: got %q, err=%v, want ErrCorrupt", len(data), got, err)
		}
	}
}

// TestNextFrameWalksALog pins the log form: frames back to back, each
// returned with its size, and a torn last frame reported as ErrCorrupt
// at its own offset.
func TestNextFrameWalksALog(t *testing.T) {
	payloads := [][]byte{[]byte(`{"t":"submit"}`), {}, []byte(`{"t":"done"}`)}
	var log []byte
	for _, p := range payloads {
		log = AppendFrame(log, p)
	}
	whole := len(log)
	log = AppendFrame(log, []byte("torn"))[:whole+FrameHeader+2]
	off := 0
	for i, want := range payloads {
		got, size, err := NextFrame(log[off:])
		if err != nil || !bytes.Equal(got, want) || size != FrameHeader+len(want) {
			t.Fatalf("frame %d at %d: %q, size %d, %v", i, off, got, size, err)
		}
		off += size
	}
	if off != whole {
		t.Fatalf("walked %d bytes, want %d", off, whole)
	}
	if _, _, err := NextFrame(log[off:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn tail: err=%v, want ErrCorrupt", err)
	}
}

// TestWriteRecordTornIsCorrupt: a torn write at the final path reads
// back as corrupt, never as a shorter record.
func TestWriteRecordTornIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.rec")
	install(t, "t.write:torn")
	if err := WriteFileAtomic(path, Bytes(AppendFrame(nil, []byte("0123456789abcdef"))), "t.write"); err == nil {
		t.Fatal("torn write reported success")
	}
	if _, err := readRecord(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn record: err=%v, want ErrCorrupt", err)
	}
}

// FuzzFrame feeds arbitrary bytes to both readers — the log walk
// (NextFrame) and OnlyFrame's one-frame check — and requires that
// neither panics, fails with anything but ErrCorrupt, or returns a
// payload whose length word and CRC do not match.
func FuzzFrame(f *testing.F) {
	log := AppendFrame(AppendFrame(nil, []byte(`{"t":"submit","id":"j000001","key":"k1"}`)), []byte(`{"t":"done","id":"j000001"}`))
	f.Add(log)
	// The torn-tail corpus: the log cut at every byte.
	for cut := 0; cut < len(log); cut++ {
		f.Add(log[:cut])
	}
	// The CRC-flip corpus: one byte flipped at every offset.
	for off := 0; off < len(log); off++ {
		mut := append([]byte(nil), log...)
		mut[off] ^= 0x01
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); {
			payload, size, err := NextFrame(data[off:])
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("NextFrame at %d: %v", off, err)
				}
				break
			}
			checkFrame(t, data[off:off+size], payload)
			off += size
		}
		payload, err := OnlyFrame(data)
		switch {
		case err == nil:
			checkFrame(t, data, payload)
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("OnlyFrame: %v", err)
		}
	})
}
