// Package faultinject is a seeded, deterministic fault plane for crash
// and corruption testing.  Production code consults it at two choke
// points — the durable file I/O layer (checkpoints, journal, dataset
// mirrors) and the cluster HTTP transport — through package-level hooks
// that compile to a nil-check when no injector is installed: the
// disabled hot path performs zero allocations (guarded by
// TestDisabledHooksZeroAlloc).
//
// An injector is configured from a compact spec string, typically via
// the pmaxtd -faults flag or the SPRINT_FAULTS environment variable:
//
//	seed=7;ckpt.write:corrupt:n=2;rpc.shard:error:p=0.3,count=5
//
// Each clause is site:mode[:param,param...].  Sites name the choke
// points ("ckpt.write", "ckpt.read", "journal.append",
// "journal.compact", "dataset.write", "dataset.read", "retain.write",
// "retain.read", "rpc.shard", "rpc.push", "rpc.join"); a trailing '*'
// matches a prefix ("rpc.*" partitions every cluster call).  Modes:
//
//	error     the operation fails with ErrInjected
//	diskfull  the operation fails with ErrDiskFull (wraps ErrInjected)
//	torn      a file write leaves a truncated body at the final path,
//	          then fails — the crash-mid-write a rename never allows
//	corrupt   one payload byte is flipped and the operation SUCCEEDS —
//	          silent corruption for the CRC read path to catch
//	shortread a file read returns a truncated payload
//	delay     the operation sleeps ms milliseconds, then proceeds
//
// Parameters: n=K fires on the Kth matching operation only; p=F fires
// each operation with probability F from the injector's seeded RNG;
// count=K caps total fires; ms=K sets the delay.  Without n or p a rule
// fires on every operation.  The same seed always yields the same fault
// schedule, which is what lets the chaos suite assert byte-identical
// results run after run.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every injected failure.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrDiskFull is the injected out-of-space failure (wraps ErrInjected).
var ErrDiskFull = fmt.Errorf("%w: no space left on device", ErrInjected)

// WriteFault classifies how a file write should be mutated.
type WriteFault int

const (
	// WriteOK leaves the write untouched.
	WriteOK WriteFault = iota
	// WriteTorn instructs the writer to leave the (already truncated)
	// payload at the FINAL path and fail — simulating a crash mid-write
	// on a pre-atomic-rename code path or a lying filesystem.
	WriteTorn
	// WriteCorrupt means a byte was flipped; the write should proceed
	// and succeed, leaving silent corruption for the read path.
	WriteCorrupt
)

type mode int

const (
	modeError mode = iota
	modeDiskFull
	modeTorn
	modeCorrupt
	modeShortRead
	modeDelay
)

var modeNames = map[string]mode{
	"error":     modeError,
	"diskfull":  modeDiskFull,
	"torn":      modeTorn,
	"corrupt":   modeCorrupt,
	"shortread": modeShortRead,
	"delay":     modeDelay,
}

func (m mode) String() string {
	for name, v := range modeNames {
		if v == m {
			return name
		}
	}
	return "?"
}

// rule is one parsed clause plus its firing state.
type rule struct {
	site   string // exact site, or prefix when star
	star   bool
	mode   mode
	n      int64 // fire on the Nth matching op only (0 = every op / p)
	p      float64
	count  int64 // max fires, 0 = unlimited
	ms     int64
	ops    int64 // matching operations seen
	fired  int64
	lastOp string
}

func (r *rule) matches(site string) bool {
	if r.star {
		return strings.HasPrefix(site, r.site)
	}
	return r.site == site
}

// Injector is a parsed fault schedule.  All methods are safe for
// concurrent use; firing decisions are serialised under one mutex so a
// given seed replays the same schedule regardless of goroutine count
// (per-site op ordering is what callers control for determinism).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	rules []*rule
	stats map[string]int64 // "site:mode" → fires
}

// Parse builds an injector from a spec string (see the package comment
// for the grammar).  An empty spec returns (nil, nil): no injector.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{seed: 1, stats: make(map[string]int64)}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", v)
			}
			inj.seed = seed
			continue
		}
		parts := strings.SplitN(clause, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("faultinject: clause %q wants site:mode[:params]", clause)
		}
		m, ok := modeNames[parts[1]]
		if !ok {
			return nil, fmt.Errorf("faultinject: unknown mode %q in %q", parts[1], clause)
		}
		r := &rule{site: parts[0], mode: m}
		if strings.HasSuffix(r.site, "*") {
			r.site, r.star = strings.TrimSuffix(r.site, "*"), true
		}
		if len(parts) == 3 {
			for _, kv := range strings.Split(parts[2], ",") {
				k, v, found := strings.Cut(kv, "=")
				if !found {
					return nil, fmt.Errorf("faultinject: parameter %q wants k=v", kv)
				}
				switch k {
				case "n":
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faultinject: bad n=%q", v)
					}
					r.n = n
				case "p":
					p, err := strconv.ParseFloat(v, 64)
					if err != nil || p < 0 || p > 1 {
						return nil, fmt.Errorf("faultinject: bad p=%q", v)
					}
					r.p = p
				case "count":
					c, err := strconv.ParseInt(v, 10, 64)
					if err != nil || c < 1 {
						return nil, fmt.Errorf("faultinject: bad count=%q", v)
					}
					r.count = c
				case "ms":
					ms, err := strconv.ParseInt(v, 10, 64)
					if err != nil || ms < 0 {
						return nil, fmt.Errorf("faultinject: bad ms=%q", v)
					}
					r.ms = ms
				default:
					return nil, fmt.Errorf("faultinject: unknown parameter %q", k)
				}
			}
		}
		inj.rules = append(inj.rules, r)
	}
	if len(inj.rules) == 0 {
		return nil, nil
	}
	inj.rng = rand.New(rand.NewSource(inj.seed))
	return inj, nil
}

// fire reports whether r triggers for this operation, updating its
// counters.  Callers hold inj.mu.
func (inj *Injector) fire(r *rule, site, detail string) bool {
	r.ops++
	if r.count > 0 && r.fired >= r.count {
		return false
	}
	switch {
	case r.n > 0:
		if r.ops != r.n {
			return false
		}
	case r.p > 0:
		if inj.rng.Float64() >= r.p {
			return false
		}
	}
	r.fired++
	r.lastOp = detail
	inj.stats[r.site+":"+r.mode.String()]++
	return true
}

// match returns the first firing rule for site whose mode the calling
// hook implements, or nil.  The mode filter keeps the hooks from
// consuming each other's rules: one durable write runs both Before and
// MutateWrite, and without the filter Before would burn a torn rule's
// n-th trigger while being unable to act on it.  Each rule therefore
// counts an operation exactly once, in the one hook that can fire it.
func (inj *Injector) match(site, detail string, want func(mode) bool) *rule {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		if !want(r.mode) || !r.matches(site) {
			continue
		}
		if inj.fire(r, site, detail) {
			return r
		}
	}
	return nil
}

func beforeMode(m mode) bool { return m == modeError || m == modeDiskFull || m == modeDelay }
func writeMode(m mode) bool  { return m == modeTorn || m == modeCorrupt }
func readMode(m mode) bool   { return m == modeShortRead || m == modeCorrupt }

// Stats snapshots fires by "site:mode".
func (inj *Injector) Stats() map[string]int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]int64, len(inj.stats))
	for k, v := range inj.stats {
		out[k] = v
	}
	return out
}

// ---- global installation ------------------------------------------------

// current holds the installed injector; nil (the default) disables every
// hook at the cost of one atomic load.
var current atomic.Pointer[Injector]

// Setup parses spec and installs the result globally.  An empty spec
// uninstalls (equivalent to Disable).
func Setup(spec string) (*Injector, error) {
	inj, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	current.Store(inj)
	return inj, nil
}

// Install makes inj the active injector (nil disables).
func Install(inj *Injector) { current.Store(inj) }

// Disable uninstalls any active injector.
func Disable() { current.Store(nil) }

// Active reports whether an injector is installed.
func Active() bool { return current.Load() != nil }

// ---- hooks --------------------------------------------------------------

// Before consults the fault schedule ahead of an operation at site.
// It returns a non-nil error for error/diskfull faults, sleeps for
// delay faults, and returns nil otherwise.  With no injector installed
// it is a single atomic load.
func Before(site, detail string) error {
	inj := current.Load()
	if inj == nil {
		return nil
	}
	r := inj.match(site, detail, beforeMode)
	if r == nil {
		return nil
	}
	switch r.mode {
	case modeError:
		return fmt.Errorf("%w: %s %s", ErrInjected, site, detail)
	case modeDiskFull:
		return fmt.Errorf("%s %s: %w", site, detail, ErrDiskFull)
	case modeDelay:
		time.Sleep(time.Duration(r.ms) * time.Millisecond)
	}
	return nil
}

// MutateWrite consults the schedule for a file write at site.  Torn
// faults return a truncated copy plus WriteTorn; corrupt faults return
// a copy with one byte flipped plus WriteCorrupt; otherwise data is
// returned untouched.  The input slice is never modified.
func MutateWrite(site string, data []byte) ([]byte, WriteFault) {
	inj := current.Load()
	if inj == nil {
		return data, WriteOK
	}
	r := inj.match(site, "", writeMode)
	if r == nil {
		return data, WriteOK
	}
	switch r.mode {
	case modeTorn:
		return append([]byte(nil), data[:len(data)/2]...), WriteTorn
	case modeCorrupt:
		out := append([]byte(nil), data...)
		if len(out) > 0 {
			out[len(out)*2/3] ^= 0x40
		}
		return out, WriteCorrupt
	}
	return data, WriteOK
}

// MutateRead consults the schedule for a completed file read at site,
// returning a truncated copy for shortread faults and a byte-flipped
// copy for corrupt faults.  The input slice is never modified.
func MutateRead(site string, data []byte) []byte {
	inj := current.Load()
	if inj == nil {
		return data
	}
	r := inj.match(site, "", readMode)
	if r == nil {
		return data
	}
	switch r.mode {
	case modeShortRead:
		return data[:len(data)/2]
	case modeCorrupt:
		out := append([]byte(nil), data...)
		if len(out) > 0 {
			out[len(out)/3] ^= 0x40
		}
		return out
	}
	return data
}
