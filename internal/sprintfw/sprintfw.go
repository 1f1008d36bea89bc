// Package sprintfw implements the SPRINT framework architecture of Hill et
// al. and Dobrzelecki et al. (Figure 1 of the paper): all participating
// processes start together; the master evaluates the user's script; the
// workers enter a waiting loop until they receive an appropriate command
// message from the master; on a parallel-function call the workers are
// notified, data and computation are distributed, the workers collectively
// evaluate the function, and the master collects and reduces the results
// before handing them back to the script.
//
// In SPRINT proper the script is R code and the functions are C+MPI
// implementations registered in a library.  Here the script is a Go
// closure, the registry maps names to Function values, and the transport is
// the in-process mpi package — the protocol (command broadcast, collective
// evaluation, master-side reduction) is the same.
package sprintfw

import (
	"fmt"
	"sort"
	"sync"

	"sprint/internal/mpi"
)

// Function is a parallel function that all ranks evaluate collectively.
// Eval runs simultaneously on every rank with the same args (delivered by
// the framework's command broadcast); it may use the full mpi API.  The
// framework returns the master's Eval result to the calling script.
type Function interface {
	// Name is the registry key, e.g. "pmaxt".
	Name() string
	// Eval computes the function collectively.  An error on any rank
	// aborts the world.
	Eval(c *mpi.Comm, args any) (any, error)
}

// FuncOf adapts a name and closure into a Function.
func FuncOf(name string, eval func(c *mpi.Comm, args any) (any, error)) Function {
	return funcAdapter{name: name, eval: eval}
}

type funcAdapter struct {
	name string
	eval func(c *mpi.Comm, args any) (any, error)
}

func (f funcAdapter) Name() string { return f.name }
func (f funcAdapter) Eval(c *mpi.Comm, args any) (any, error) {
	return f.eval(c, args)
}

// Registry is the library of parallel functions loaded by every rank, the
// analogue of loading the SPRINT library into each R runtime.  Registration
// happens before Run; lookups during a session are read-only and therefore
// safe from all ranks.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]Function
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: make(map[string]Function)}
}

// Register adds a function, rejecting duplicates.
func (r *Registry) Register(f Function) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.funcs[f.Name()]; dup {
		return fmt.Errorf("sprintfw: function %q already registered", f.Name())
	}
	r.funcs[f.Name()] = f
	return nil
}

// MustRegister is Register that panics on error, for package init wiring.
func (r *Registry) MustRegister(f Function) {
	if err := r.Register(f); err != nil {
		panic(err)
	}
}

// Lookup finds a registered function.
func (r *Registry) Lookup(name string) (Function, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[name]
	return f, ok
}

// Names lists registered function names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Command opcodes broadcast from the master to the waiting workers.
type opcode int

const (
	opCall opcode = iota
	opShutdown
)

// command is the message the workers' waiting loop blocks on.
type command struct {
	op   opcode
	name string
	args any
}

// Session is the master's handle for invoking parallel functions from the
// script.  It exists only on rank 0.
type Session struct {
	comm *mpi.Comm
	reg  *Registry
}

// Comm exposes the master's communicator, e.g. for size queries.
func (s *Session) Comm() *mpi.Comm { return s.comm }

// Call collectively evaluates the named function with args on every rank
// and returns the master's result.  The workers are woken by a command
// broadcast, mirroring the notification step in the SPRINT architecture.
func (s *Session) Call(name string, args any) (any, error) {
	fn, ok := s.reg.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sprintfw: function %q not registered", name)
	}
	mpi.Bcast(s.comm, 0, command{op: opCall, name: name, args: args})
	return fn.Eval(s.comm, args)
}

// Run starts an n-rank SPRINT session: rank 0 evaluates script; all other
// ranks service it from the waiting loop.  When the script returns —
// normally or not — the master broadcasts shutdown so the workers exit
// their loop.  The error from the script (or from any rank's evaluation)
// is returned.
func Run(n int, reg *Registry, script func(s *Session) error) error {
	return mpi.Run(n, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			err := script(&Session{comm: c, reg: reg})
			// Always release the workers, even on script failure, so
			// the world shuts down instead of deadlocking.
			mpi.Bcast(c, 0, command{op: opShutdown})
			return err
		}
		return workerLoop(c, reg)
	})
}

// workerLoop is the waiting loop of Figure 1: block on a command broadcast,
// evaluate collectively, repeat until shutdown.
func workerLoop(c *mpi.Comm, reg *Registry) error {
	for {
		cmd := mpi.Bcast(c, 0, command{})
		switch cmd.op {
		case opShutdown:
			return nil
		case opCall:
			fn, ok := reg.Lookup(cmd.name)
			if !ok {
				// The master verified the name before broadcasting, so
				// divergent registries are a deployment bug.
				return fmt.Errorf("sprintfw: rank %d has no function %q", c.Rank(), cmd.name)
			}
			if _, err := fn.Eval(c, cmd.args); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sprintfw: rank %d received unknown opcode %d", c.Rank(), cmd.op)
		}
	}
}
