package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach is the one fan-out behind the offline scans (database build,
// row rebuild, LkT scan, COLAO search, model training, model argmin):
// it calls the worker returned by newWorker once for every index in
// [0, n). Up to min(GOMAXPROCS, n) workers each get their own state from
// one newWorker call and take indexes in ascending order from a shared
// counter; a single worker runs inline on the caller. Callers write
// results[i] and merge in index order, so the schedule never reaches
// their output.
func forEach(n int, newWorker func() func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 0 {
		return
	}
	if workers == 1 {
		do := newWorker()
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			do := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
}
