package stat

import (
	"fmt"
	"strings"
)

// KernelISA names the instruction set two lanes run on: the two-sample t
// batch kernel's and the Wilcoxon delta kernel's.  Each lane's
// implementations are bitwise interchangeable — every SIMD lane performs
// one (row, permutation) cell's scalar IEEE-754 operations in the same
// order (TestStatsBatchISASweep, TestDeltaRowsISASweep) — so the choice is
// purely a performance knob, never a correctness one.  The ISAs are
// ordered: each runs every lane of the ones below it, so a lane is gated
// on isa >= its own (TestLanesUnderEveryHigherISA).
type KernelISA int

const (
	// ISAGeneric is the portable pure-Go code: the row-pair two-sample
	// kernel and the row-at-a-time delta lane.
	ISAGeneric KernelISA = iota
	// ISAAVX2 is the 4-lane assembly (amd64 with AVX2), lanes = rows, the
	// statistic's tail and the store in the same registers: four rows ×
	// four permutations per iteration for the two-sample t (tsQuad), four
	// rows along a revolving-door chain for the Wilcoxon delta (wilxQuad).
	ISAAVX2
	// ISAAVX512 adds the 8-lane two-sample t routine (amd64 with AVX512F):
	// eight rows × four permutations per iteration (tsOct).  The Wilcoxon
	// delta lane and the counter stay on their AVX2 routines.
	ISAAVX512
)

// isaNames is the one list of kernel names, indexed by KernelISA.
var isaNames = [...]string{
	ISAGeneric: "generic",
	ISAAVX2:    "avx2",
	ISAAVX512:  "avx512",
}

// String returns the flag-level name of the ISA.
func (i KernelISA) String() string {
	if i >= 0 && int(i) < len(isaNames) {
		return isaNames[i]
	}
	return fmt.Sprintf("KernelISA(%d)", int(i))
}

// KernelNames lists every name SetKernelISA accepts: "auto", then each
// ISA, best last.
func KernelNames() []string { return append([]string{"auto"}, isaNames[:]...) }

// activeISA is the process-wide kernel dispatch choice, initialised to the
// best ISA the CPU supports.  It is read once per kernel construction
// (NewKernel); SetKernelISA is meant for process startup (CLI flags) and
// tests, not for concurrent mutation during runs.
var activeISA = bestISA()

// ActiveKernelISA reports the ISA newly built kernels will use.
func ActiveKernelISA() KernelISA { return activeISA }

// SupportedISAs lists the ISA names this process can run, best last.
func SupportedISAs() []string { return append([]string(nil), isaNames[:bestISA()+1]...) }

// SetKernelISA selects the accumulation kernel by name, one of
// KernelNames: "auto" picks the best supported ISA, any other forces one.
// Requesting an ISA the CPU (or GOARCH) cannot run, or a name not listed
// there, returns an error and leaves the active choice unchanged.  The
// returned value is the ISA now active.
func SetKernelISA(name string) (KernelISA, error) {
	name = strings.ToLower(name)
	if name == "" || name == "auto" {
		activeISA = bestISA()
		return activeISA, nil
	}
	for isa, n := range isaNames {
		if n != name {
			continue
		}
		if KernelISA(isa) > bestISA() {
			return activeISA, fmt.Errorf("stat: kernel %q not supported on this CPU (have %s)", name, SupportedISAs())
		}
		activeISA = KernelISA(isa)
		return activeISA, nil
	}
	names := KernelNames()
	return activeISA, fmt.Errorf("stat: unknown kernel %q (want %s or %s)", name, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}
