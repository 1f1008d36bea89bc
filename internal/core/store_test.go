package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sprint/internal/durable"
)

// storeLayouts are the store's two users: the job manager's checkpoints
// and a worker's retained shard results.
var storeLayouts = []StoreConfig{
	{Ext: ".ckpt", Site: "ckpt", Max: 8},
	{Ext: ".shard", Site: "retain", Max: 8},
}

// storeRecord is a partial counts record of the window [0, 1000) up to
// next.
func storeRecord(next int64) []byte {
	ck := &Checkpoint{Fingerprint: 0xfeedface, TotalB: 1000, Next: next, Done: next, Hi: 1000,
		Raw: []int64{3, 1, 4}, Adj: []int64{1, 5, 9}}
	return ck.AppendRecord(nil)
}

// openTestStore opens cfg over dir and counts its corrupt-hook calls.
func openTestStore(t *testing.T, cfg StoreConfig, dir string, corrupt *int) *Store {
	t.Helper()
	cfg.Dir = dir
	cfg.OnCorrupt = func() { *corrupt++ }
	s, err := OpenStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// liveKeys lists the keys that have a current or ".prev" file in dir.
func liveKeys(t *testing.T, dir, ext string) []string {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range names {
		if k, ok := strings.CutSuffix(strings.TrimSuffix(d.Name(), ".prev"), ext); ok {
			seen[k] = true
		}
	}
	var keys []string
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStore pins the one policy over both layouts: a reopened store
// serves a record without rewriting it; a damaged file — a flipped
// byte, a cut, a wrong CRC word, a record of another version, or what
// an older daemon wrote — is left alone at open, quarantined on its
// first lookup, reported once, and the ".prev" generation serves; a key
// whose only file is ".prev" is found; a key with no readable file is
// forgotten; eviction and Drop remove every generation.
func TestStore(t *testing.T) {
	older, newer := storeRecord(100), storeRecord(200)
	parentJSON, err := os.ReadFile(filepath.Join("..", "cluster", "testdata", "shard_json.bin"))
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-5] },
		"wrong CRC":    func(b []byte) []byte { b[4] ^= 1; return b },
		"unknown version": func(b []byte) []byte {
			p := bytes.Clone(b[durable.FrameHeader:])
			p[0] = 2
			return durable.AppendFrame(nil, p)
		},
		"parent JSON": func([]byte) []byte { return parentJSON },
	}
	for _, cfg := range storeLayouts {
		t.Run(strings.TrimPrefix(cfg.Ext, "."), func(t *testing.T) {
			t.Run("reopen serves without rewrite", func(t *testing.T) {
				dir, n := t.TempDir(), 0
				if err := openTestStore(t, cfg, dir, &n).Put("k", newer); err != nil {
					t.Fatal(err)
				}
				p := filepath.Join(dir, "k"+cfg.Ext)
				before, err := os.Stat(p)
				if err != nil {
					t.Fatal(err)
				}
				s := openTestStore(t, cfg, dir, &n)
				if got := s.Get("k"); !bytes.Equal(got, newer) {
					t.Fatalf("reopened store served %x, want %x", got, newer)
				}
				after, err := os.Stat(p)
				if err != nil || !os.SameFile(before, after) || n != 0 {
					t.Fatalf("record rewritten or reported corrupt (%v, %d corrupt)", err, n)
				}
			})
			for name, bad := range damage {
				t.Run(name, func(t *testing.T) {
					dir, n := t.TempDir(), 0
					s := openTestStore(t, cfg, dir, &n)
					for _, rec := range [][]byte{older, newer} {
						if err := s.Put("k", rec); err != nil {
							t.Fatal(err)
						}
					}
					p := filepath.Join(dir, "k"+cfg.Ext)
					if err := os.WriteFile(p, bad(bytes.Clone(newer)), 0o644); err != nil {
						t.Fatal(err)
					}
					s = openTestStore(t, cfg, dir, &n)
					if _, err := os.Stat(p); err != nil || n != 0 {
						t.Fatalf("open touched the damaged file (%v, %d corrupt)", err, n)
					}
					if got := s.Get("k"); !bytes.Equal(got, older) {
						t.Fatalf("served %x, want the .prev generation %x", got, older)
					}
					if _, err := os.Stat(p); !os.IsNotExist(err) || n != 1 {
						t.Fatalf("damaged file still live (%v) or %d corrupt reports, want 1", err, n)
					}
					if _, err := os.Stat(p + ".corrupt"); err != nil {
						t.Fatalf("damaged file not quarantined: %v", err)
					}
				})
			}
			t.Run("prev only", func(t *testing.T) {
				dir, n := t.TempDir(), 0
				p := filepath.Join(dir, "k"+cfg.Ext)
				if err := os.WriteFile(p+".prev", older, 0o644); err != nil {
					t.Fatal(err)
				}
				if got := openTestStore(t, cfg, dir, &n).Get("k"); !bytes.Equal(got, older) {
					t.Fatalf("served %x, want the .prev generation", got)
				}
			})
			t.Run("every generation corrupt", func(t *testing.T) {
				dir, n := t.TempDir(), 0
				p := filepath.Join(dir, "k"+cfg.Ext)
				for _, q := range []string{p, p + ".prev"} {
					if err := os.WriteFile(q, parentJSON, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				s := openTestStore(t, cfg, dir, &n)
				if s.Len() != 1 {
					t.Fatalf("open indexed %d keys, want 1", s.Len())
				}
				if got := s.Get("k"); got != nil || s.Len() != 0 || n != 2 {
					t.Fatalf("served %x, %d keys left, %d corrupt reports; want nil, 0, 2", got, s.Len(), n)
				}
			})
			t.Run("evict and drop remove every generation", func(t *testing.T) {
				dir, n := t.TempDir(), 0
				one := cfg
				one.Max = 1
				s := openTestStore(t, one, dir, &n)
				for _, k := range []string{"a", "a", "b", "b"} {
					if err := s.Put(k, newer); err != nil {
						t.Fatal(err)
					}
				}
				if keys := liveKeys(t, dir, cfg.Ext); len(keys) != 1 || keys[0] != "b" {
					t.Fatalf("files of %v after evicting a, want [b]", keys)
				}
				s.Drop("b")
				if names, _ := os.ReadDir(dir); len(names) != 0 || s.Len() != 0 {
					t.Fatalf("%d files, %d keys left after Drop", len(names), s.Len())
				}
			})
		})
	}
}

// TestStoreDiskBoundAcrossRestarts: the bound holds on disk, not just in
// memory — files from an earlier life count against it from the moment
// the store opens, oldest first.
func TestStoreDiskBoundAcrossRestarts(t *testing.T) {
	cfg := StoreConfig{Ext: ".ckpt", Site: "ckpt", Max: 2}
	dir, n := t.TempDir(), 0
	s := openTestStore(t, cfg, dir, &n)
	for i, k := range []string{"a", "b"} {
		if err := s.Put(k, storeRecord(100)); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes, whatever the filesystem's resolution.
		mt := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, k+".ckpt"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if err := openTestStore(t, cfg, dir, &n).Put("c", storeRecord(100)); err != nil {
		t.Fatal(err)
	}
	if keys := liveKeys(t, dir, ".ckpt"); fmt.Sprint(keys) != "[b c]" {
		t.Fatalf("files of %v after a restart and a third key, want [b c]", keys)
	}
	cfg.Max = 1
	openTestStore(t, cfg, dir, &n)
	if keys := liveKeys(t, dir, ".ckpt"); fmt.Sprint(keys) != "[c]" {
		t.Fatalf("files of %v after reopening with a bound of 1, want [c]", keys)
	}
}

// TestStoreConcurrentPutsKeepFiles: with puts of two keys racing past
// a bound of one, round after round, the key the store holds has its
// file and the other has none — an eviction never deletes the file a
// later put of its key wrote, nor leaves the evicted key's behind.
func TestStoreConcurrentPutsKeepFiles(t *testing.T) {
	cfg := StoreConfig{Ext: ".shard", Site: "retain", Max: 1}
	dir, n := t.TempDir(), 0
	s := openTestStore(t, cfg, dir, &n)
	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		for _, k := range []string{"a", "b"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Put(k, storeRecord(int64(round))); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		var held []string
		for _, k := range []string{"a", "b"} {
			if s.Get(k) != nil {
				held = append(held, k)
			}
		}
		if got := liveKeys(t, dir, cfg.Ext); fmt.Sprint(got) != fmt.Sprint(held) {
			t.Fatalf("round %d: files of %v, store holds %v", round, got, held)
		}
	}
}
