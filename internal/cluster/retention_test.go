package cluster

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"sprint/internal/durable"
)

// retainedResponse is a consistent, stamped shard result for [lo, hi).
func retainedResponse(lo, hi int64) *ShardResponse {
	resp := &ShardResponse{
		Lo: lo, Next: hi, Hi: hi, TotalB: 1000, B: hi - lo,
		Fingerprint: 0xfeedface, Raw: []int64{3, 1, 4}, Adj: []int64{1, 5, 9},
	}
	resp.CRC64 = resp.CRC()
	return resp
}

// TestRetentionReloadServesWithoutRewrite: a worker restart loads each
// valid retained file into memory and serves it; the file itself is
// left alone (same inode, no atomic rewrite).
func TestRetentionReloadServesWithoutRewrite(t *testing.T) {
	dir := t.TempDir()
	rt, err := newRetention(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := retainedResponse(0, 100)
	k := retainKey{want.Fingerprint, want.Lo, want.Hi}
	rt.put(k, want)
	before, err := os.Stat(rt.fileName(k))
	if err != nil {
		t.Fatal(err)
	}

	rt2, err := newRetention(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.get(k); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded %+v, want %+v", got, want)
	}
	after, err := os.Stat(rt2.fileName(k))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("reload rewrote the retained file")
	}
}

// TestRetentionReloadQuarantinesCorrupt: a retained file with a flipped
// byte, a truncated one, and one whose frame verifies around a response
// with a wrong CRC stamp are each moved to .corrupt on reload and never
// served.
func TestRetentionReloadQuarantinesCorrupt(t *testing.T) {
	stamped := retainedResponse(0, 100)
	payload, err := json.Marshal(stamped)
	if err != nil {
		t.Fatal(err)
	}
	framed := durable.AppendFrame(nil, payload)
	restamped := *stamped
	restamped.CRC64 ^= 1
	wrongCRC, err := json.Marshal(&restamped)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), framed...)
	flipped[len(flipped)/2] ^= 0x01
	for name, data := range map[string][]byte{
		"flipped byte": flipped,
		"truncated":    framed[:len(framed)-5],
		"wrong CRC":    durable.AppendFrame(nil, wrongCRC),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			k := retainKey{stamped.Fingerprint, stamped.Lo, stamped.Hi}
			path := (&retention{dir: dir}).fileName(k)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rt, err := newRetention(dir, 8)
			if err != nil {
				t.Fatal(err)
			}
			if got := rt.get(k); got != nil || rt.size() != 0 {
				t.Fatalf("corrupt file served: %+v (size %d)", got, rt.size())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still at its path: %v", err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
		})
	}
}
