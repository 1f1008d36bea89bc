package stat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// PrepBlock is the row block of a preparation pass.  Rows are cut into
// blocks [k·PrepBlock, (k+1)·PrepBlock) whatever the core count, and every
// per-row result depends on its row alone, so which goroutine builds which
// block cannot show in the result: the fixed work units of Bobpp's
// deterministic partitioning.  It is a multiple of 8, so no row octet or
// quad straddles two blocks.
const PrepBlock = 256

// ForBlocks calls f(lo, hi) once for every block of [0, rows), on up to
// runtime.GOMAXPROCS(0) goroutines claiming blocks from a common cursor,
// as the ranks of a kernel window claim its pieces.  f must write only to
// the rows of its block.  A range of one block runs on the caller's
// goroutine.  A panic in f is re-raised on the caller's goroutine once
// every block has been claimed and the other workers have returned.
func ForBlocks(rows int, f func(lo, hi int)) {
	blocks := (rows + PrepBlock - 1) / PrepBlock
	if blocks <= 1 {
		if rows > 0 {
			f(0, rows)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	work := func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				once.Do(func() { panicked = p })
			}
		}()
		for {
			b := int(next.Add(1)) - 1
			if b >= blocks {
				return
			}
			lo := b * PrepBlock
			f(lo, min(lo+PrepBlock, rows))
		}
	}
	workers := min(runtime.GOMAXPROCS(0), blocks)
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
