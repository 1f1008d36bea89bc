package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// worldSizes covers degenerate, power-of-two and odd sizes; collectives'
// binomial trees behave differently for each shape.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

func TestRunInvalidSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Error("Run(0) succeeded, want error")
	}
	if err := Run(-3, func(c *Comm) error { return nil }); err == nil {
		t.Error("Run(-3) succeeded, want error")
	}
}

func TestRankAndSize(t *testing.T) {
	const n = 6
	var seen [n]atomic.Bool
	err := Run(n, func(c *Comm) error {
		if c.Size() != n {
			return fmt.Errorf("Size() = %d, want %d", c.Size(), n)
		}
		if seen[c.Rank()].Swap(true) {
			return fmt.Errorf("rank %d handed out twice", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecvPointToPoint(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			sendT(c, 1, 5, "hello")
			sendT(c, 1, 6, 42)
			return nil
		}
		if got := recvT[string](c, 0, 5); got != "hello" {
			return fmt.Errorf("first message = %q", got)
		}
		if got := recvT[int](c, 0, 6); got != 42 {
			return fmt.Errorf("second message = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesAreFIFOPerLink(t *testing.T) {
	const count = 100
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < count; i++ {
				sendT(c, 1, 1, i)
			}
			return nil
		}
		for i := 0; i < count; i++ {
			if got := recvT[int](c, 0, 1); got != i {
				return fmt.Errorf("message %d arrived as %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNilPayloadsDecodeToZero(t *testing.T) {
	// Workers that have nothing to contribute send nil; a nil interface
	// asserts to no type, so recvT must special-case it (regression test
	// for a bug once found by a gather of nil partials).
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			var payload any
			if c.Rank() == 1 {
				payload = "real"
			}
			sendT(c, 0, 1, payload)
			return nil
		}
		if got := recvT[any](c, 2, 1); got != nil {
			return fmt.Errorf("nil payload arrived as %v", got)
		}
		if got := recvT[any](c, 1, 1); got != "real" {
			return fmt.Errorf("non-nil payload arrived as %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTypeMismatchAborts(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			sendT(c, 1, 1, "not an int")
			return nil
		}
		_ = recvT[int](c, 0, 1)
		return nil
	})
	if err == nil {
		t.Fatal("type mismatch did not surface as error")
	}
}

func TestTagMismatchAborts(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			sendT(c, 1, 1, 7)
			return nil
		}
		_ = recvT[int](c, 0, 2)
		return nil
	})
	if err == nil {
		t.Fatal("tag mismatch did not surface as error")
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range worldSizes {
		var entered atomic.Int32
		err := Run(n, func(c *Comm) error {
			entered.Add(1)
			c.Barrier()
			// After the barrier every rank must observe all n entries.
			if got := entered.Load(); int(got) != n {
				return fmt.Errorf("rank %d passed barrier with %d/%d ranks entered", c.Rank(), got, n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBarrierRepeatable(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			err := Run(n, func(c *Comm) error {
				var v string
				if c.Rank() == root {
					v = fmt.Sprintf("payload-%d", root)
				}
				got := Bcast(c, root, v)
				want := fmt.Sprintf("payload-%d", root)
				if got != want {
					return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestBcastMessageCount(t *testing.T) {
	// A broadcast must deliver exactly n-1 point-to-point messages
	// regardless of tree shape.  Each rank records the highest message
	// count it observes after finishing; the rank that performed the
	// globally last send reads the complete total, so the max equals it.
	for _, n := range []int{2, 5, 8, 13} {
		var maxSeen atomic.Int64
		err := Run(n, func(c *Comm) error {
			Bcast(c, 0, 99)
			for {
				cur := maxSeen.Load()
				m := c.Messages()
				if m <= cur || maxSeen.CompareAndSwap(cur, m) {
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := maxSeen.Load(); got != int64(n-1) {
			t.Errorf("n=%d: bcast used %d messages, want %d", n, got, n-1)
		}
	}
}

func TestReduceSumAllSizesAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			err := Run(n, func(c *Comm) error {
				local := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
				v, ok := Reduce(c, root, append([]int64(nil), local...), SumInt64)
				if c.Rank() != root {
					if ok {
						return fmt.Errorf("non-root rank %d got ok=true", c.Rank())
					}
					return nil
				}
				if !ok {
					return fmt.Errorf("root did not get ok=true")
				}
				var wantSum, wantSq int64
				for r := 0; r < n; r++ {
					wantSum += int64(r)
					wantSq += int64(r * r)
				}
				if v[0] != wantSum || v[1] != int64(n) || v[2] != wantSq {
					return fmt.Errorf("reduce result %v, want [%d %d %d]", v, wantSum, n, wantSq)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestAllreduce(t *testing.T) {
	for _, n := range worldSizes {
		err := Run(n, func(c *Comm) error {
			got := Allreduce(c, []int64{1, int64(c.Rank())}, SumInt64)
			wantRankSum := int64(n * (n - 1) / 2)
			if got[0] != int64(n) || got[1] != wantRankSum {
				return fmt.Errorf("rank %d allreduce = %v, want [%d %v]", c.Rank(), got, n, wantRankSum)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRankErrorPropagation(t *testing.T) {
	sentinel := errors.New("worker exploded")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks block on a message that never comes; the abort
		// must unblock them rather than deadlocking the test.
		if c.Rank() == 3 {
			_ = recvT[int](c, 0, 9)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want wrapped sentinel", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("Run error = %#v, want RankError{Rank: 2}", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("deliberate")
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("error = %v, want RankError{Rank: 1}", err)
	}
}

func TestSendToInvalidRankAborts(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			sendT(c, 5, 1, 0)
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("send to invalid rank did not abort")
	}
}

func TestSumOperatorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SumInt64 length mismatch did not panic")
		}
	}()
	SumInt64([]int64{1}, []int64{1, 2})
}

func TestCollectiveSequenceStress(t *testing.T) {
	// Interleave every collective repeatedly; FIFO links plus fixed tags
	// must keep them from cross-talking.
	err := Run(7, func(c *Comm) error {
		for i := 0; i < 25; i++ {
			v := Bcast(c, i%7, i)
			if v != i {
				return fmt.Errorf("iter %d: bcast = %d", i, v)
			}
			sum := Allreduce(c, []int64{1}, SumInt64)
			if sum[0] != 7 {
				return fmt.Errorf("iter %d: allreduce = %d", i, sum[0])
			}
			total, ok := Reduce(c, i%7, []int64{int64(c.Rank())}, SumInt64)
			if ok && total[0] != 21 {
				return fmt.Errorf("iter %d: reduce = %d", i, total[0])
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesAt512Ranks(t *testing.T) {
	// The paper's largest run uses 512 MPI processes; the substrate must
	// handle that rank count (oversubscribed goroutines) correctly.
	if testing.Short() {
		t.Skip("512-rank stress skipped in -short mode")
	}
	const n = 512
	err := Run(n, func(c *Comm) error {
		v := Bcast(c, 0, 1234)
		if v != 1234 {
			return fmt.Errorf("rank %d bcast got %d", c.Rank(), v)
		}
		sum := Allreduce(c, []int64{1}, SumInt64)
		if sum[0] != n {
			return fmt.Errorf("rank %d allreduce got %d", c.Rank(), sum[0])
		}
		c.Barrier()
		total, ok := Reduce(c, 0, []int64{int64(c.Rank())}, SumInt64)
		if ok && total[0] != n*(n-1)/2 {
			return fmt.Errorf("reduce sum %d", total[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBcast8(b *testing.B) {
	payload := make([]float64, 1024)
	_ = Run(8, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			Bcast(c, 0, payload)
		}
		return nil
	})
}

func BenchmarkAllreduce8(b *testing.B) {
	_ = Run(8, func(c *Comm) error {
		local := make([]int64, 1024)
		for i := 0; i < b.N; i++ {
			Allreduce(c, local, SumInt64)
		}
		return nil
	})
}
