// Package mpi is an in-process message-passing substrate with the subset of
// MPI semantics that SPRINT relies on: ranked processes, tagged
// point-to-point messages with non-overtaking delivery, and the collective
// operations pmaxT calls (broadcast, reduce, all-reduce, barrier).
//
// The paper's implementation runs on real MPI over Cray SeaStar2, Gigabit
// Ethernet, virtualised cloud networks and shared memory.  We have none of
// those; goroutines and channels stand in for processes and interconnect
// (see DESIGN.md).  What is preserved is the *algorithmic* structure:
//
//   - one goroutine per rank, no shared mutable state between ranks other
//     than messages (data races across ranks would be as illegal here as
//     across MPI processes);
//   - collectives implemented as binomial trees, so the number of message
//     hops grows as ceil(log2 p) exactly like the interconnect cost the
//     paper measures in its "Broadcast parameters" and "Compute p-values"
//     columns;
//   - deterministic tag matching: each (src, dst) channel is FIFO and a
//     receive asserts the expected tag, catching protocol bugs loudly.
//
// Payloads travel by reference (this is one address space).  Callers must
// follow the MPI ownership discipline: a sender must not mutate a message
// after sending it.  Collectives that combine data (Reduce) copy operands
// before combining where needed.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// chanCap is the per-link buffer.  One slot is enough to make every
// collective in this package deadlock-free; more slots only add slack for
// user-level pipelining.
const chanCap = 4

type message struct {
	tag  int
	data any
}

// world owns the mailboxes shared by all ranks of one Run.
type world struct {
	size int
	mail [][]chan message // mail[src][dst]
	done chan struct{}    // closed on abort
	fail sync.Once
	err  atomic.Value // first abort error

	messages atomic.Int64 // total point-to-point messages delivered
}

func newWorld(n int) *world {
	w := &world{size: n, done: make(chan struct{})}
	w.mail = make([][]chan message, n)
	for s := range w.mail {
		w.mail[s] = make([]chan message, n)
		for d := range w.mail[s] {
			w.mail[s][d] = make(chan message, chanCap)
		}
	}
	return w
}

// abort poisons the world so that blocked ranks unblock and fail instead of
// hanging the process when one rank dies.
func (w *world) abort(err error) {
	w.fail.Do(func() {
		w.err.Store(err)
		close(w.done)
	})
}

// ErrAborted is the panic value observed by ranks whose communication was
// interrupted because another rank failed first.
var ErrAborted = fmt.Errorf("mpi: world aborted by another rank's failure")

// Comm is one rank's handle on the communicator.  A Comm must only be used
// by the goroutine it was handed to, mirroring MPI's process-private state.
type Comm struct {
	rank int
	w    *world
}

// Rank returns the calling rank, 0-based.  Rank 0 is the master in the
// SPRINT framework.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// Messages returns the total point-to-point messages delivered so far in
// this world, across all ranks.  Used by tests and by the performance
// model's calibration hooks.
func (c *Comm) Messages() int64 { return c.w.messages.Load() }

// send delivers a message, aborting if the world has failed.
func (c *Comm) send(dst, tag int, data any) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", dst, c.w.size))
	}
	select {
	case c.w.mail[c.rank][dst] <- message{tag: tag, data: data}:
		c.w.messages.Add(1)
	case <-c.w.done:
		panic(ErrAborted)
	}
}

// recv blocks for the next message from src and asserts its tag.
func (c *Comm) recv(src, tag int) any {
	if src < 0 || src >= c.w.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d (size %d)", src, c.w.size))
	}
	select {
	case m := <-c.w.mail[src][c.rank]:
		if m.tag != tag {
			panic(fmt.Sprintf("mpi: rank %d expected tag %d from rank %d, got %d",
				c.rank, tag, src, m.tag))
		}
		return m.data
	case <-c.w.done:
		panic(ErrAborted)
	}
}

// sendT and recvT are the typed point-to-point primitives the
// collectives are built from.
func sendT[T any](c *Comm, dst, tag int, v T) {
	c.send(dst, tag, v)
}

func recvT[T any](c *Comm, src, tag int) T {
	data := c.recv(src, tag)
	v, ok := data.(T)
	if !ok {
		if data == nil {
			// A nil payload asserts to no type, including `any`; it
			// decodes to the zero value (e.g. gathering nil partials).
			var zero T
			return zero
		}
		panic(fmt.Sprintf("mpi: rank %d received %T from rank %d, want %T",
			c.rank, data, src, v))
	}
	return v
}

// Reserved collective tags; the per-link FIFO ordering plus identical
// program order across ranks make fixed tags sufficient.
const (
	tagBarrier = -1
	tagBcast   = -2
	tagReduce  = -3
)

// Barrier blocks until every rank has entered it.  Implemented as a
// dissemination barrier: ceil(log2 n) rounds of shifted sends, the same
// message count real MPI implementations pay.
func (c *Comm) Barrier() {
	n := c.w.size
	for shift := 1; shift < n; shift <<= 1 {
		dst := (c.rank + shift) % n
		src := (c.rank - shift + n) % n
		c.send(dst, tagBarrier, nil)
		c.recv(src, tagBarrier)
	}
}

// Bcast broadcasts root's value to every rank along a binomial tree and
// returns it.  Non-root callers pass their zero value and use the return.
func Bcast[T any](c *Comm, root int, v T) T {
	n := c.w.size
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: bcast root %d out of range", root))
	}
	vrank := (c.rank - root + n) % n
	// Receive phase: find the bit that connects us to our parent.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			src := (c.rank - mask + n) % n
			v = recvT[T](c, src, tagBcast)
			break
		}
		mask <<= 1
	}
	// Forward phase: serve the subtree below the receiving bit.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < n {
			dst := (c.rank + mask) % n
			sendT(c, dst, tagBcast, v)
		}
		mask >>= 1
	}
	return v
}

// Reduce combines every rank's value with the commutative, associative op
// along a binomial tree.  The fully combined value is returned on root with
// ok = true; other ranks get their partially combined value with ok =
// false.  op may mutate and return its first argument (the accumulator) but
// must not retain the second.
func Reduce[T any](c *Comm, root int, v T, op func(acc, in T) T) (result T, ok bool) {
	n := c.w.size
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: reduce root %d out of range", root))
	}
	vrank := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask == 0 {
			partnerV := vrank | mask
			if partnerV < n {
				src := (partnerV + root) % n
				in := recvT[T](c, src, tagReduce)
				v = op(v, in)
			}
		} else {
			dst := (vrank - mask + root) % n
			sendT(c, dst, tagReduce, v)
			return v, false
		}
		mask <<= 1
	}
	return v, true
}

// Allreduce combines every rank's value and distributes the result to all
// ranks: Reduce to rank 0's virtual root followed by a broadcast.
func Allreduce[T any](c *Comm, v T, op func(acc, in T) T) T {
	combined, ok := Reduce(c, 0, v, op)
	if !ok {
		var zero T
		combined = zero
	}
	return Bcast(c, 0, combined)
}

// SumInt64 is the reduction operator for exceedance-count vectors: the
// element-wise global sum of Step 5.  It accumulates in place into acc.
func SumInt64(acc, in []int64) []int64 {
	if len(acc) != len(in) {
		panic("mpi: SumInt64 length mismatch")
	}
	for i := range acc {
		acc[i] += in[i]
	}
	return acc
}

// RankError reports which rank failed and why when Run returns an error.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *RankError) Unwrap() error { return e.Err }

// Run executes fn once per rank on n concurrent goroutines, each with its
// own Comm, and waits for all of them.  The first rank failure (returned
// error or panic) aborts the world so no rank blocks forever; Run returns
// that first failure.  Panics carrying ErrAborted are secondary casualties
// and are not reported over the primary error.
func Run(n int, fn func(c *Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", n)
	}
	w := newWorld(n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err, isErr := r.(error); isErr && err == ErrAborted {
						errs[rank] = ErrAborted
						return
					}
					err := &RankError{Rank: rank, Err: fmt.Errorf("panic: %v", r)}
					errs[rank] = err
					w.abort(err)
				}
			}()
			if err := fn(&Comm{rank: rank, w: w}); err != nil {
				re := &RankError{Rank: rank, Err: err}
				errs[rank] = re
				w.abort(re)
			}
		}(rank)
	}
	wg.Wait()
	if v := w.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}
