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
// purely a performance knob, never a correctness one.
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
)

var isaNames = map[KernelISA]string{
	ISAGeneric: "generic",
	ISAAVX2:    "avx2",
}

// String returns the flag-level name of the ISA.
func (i KernelISA) String() string {
	if s, ok := isaNames[i]; ok {
		return s
	}
	return fmt.Sprintf("KernelISA(%d)", int(i))
}

// activeISA is the process-wide kernel dispatch choice, initialised to the
// best ISA the CPU supports.  It is read once per kernel construction
// (NewKernel); SetKernelISA is meant for process startup (CLI flags) and
// tests, not for concurrent mutation during runs.
var activeISA = bestISA()

// ActiveKernelISA reports the ISA newly built kernels will use.
func ActiveKernelISA() KernelISA { return activeISA }

// SupportedISAs lists the ISA names this process can run, best last.
func SupportedISAs() []string {
	var out []string
	for isa := ISAGeneric; isa <= bestISA(); isa++ {
		out = append(out, isa.String())
	}
	return out
}

// SetKernelISA selects the accumulation kernel by name: "auto" picks the
// best supported ISA, "generic" and "avx2" force one.  Requesting an ISA
// the CPU (or GOARCH) cannot run, or a name not listed here, returns an
// error and leaves the active choice unchanged.  The returned value is the
// ISA now active.
func SetKernelISA(name string) (KernelISA, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		activeISA = bestISA()
		return activeISA, nil
	case "generic":
		activeISA = ISAGeneric
		return activeISA, nil
	case "avx2":
		if bestISA() < ISAAVX2 {
			return activeISA, fmt.Errorf("stat: kernel %q not supported on this CPU (have %s)", name, SupportedISAs())
		}
		activeISA = ISAAVX2
		return activeISA, nil
	default:
		return activeISA, fmt.Errorf("stat: unknown kernel %q (want auto, generic or avx2)", name)
	}
}
