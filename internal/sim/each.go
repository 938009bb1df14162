package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) and returns when all calls
// have — the one worker pool, for jobs that share no state: the members of
// a fleet (internal/cluster), the cells of a campaign (internal/campaign).
// Every such job is an Env of its own, internally sequential and seeded,
// so what it computes is the same for any worker count; workers <= 0 means
// runtime.GOMAXPROCS(0).
//
// The workers claim indices from one atomic counter, so a job that has
// more to do does not hold up the others' queue; with one worker the calls
// run on the caller's goroutine in index order. With more, the caller
// starts them all and waits rather than taking a share itself: a lone
// helper would sit in the caller's run-next slot, which another thread may
// steal only after a delay as long as a short call's whole work. fn must
// touch only job i's state, and the caller none of it while Each is in
// flight.
func Each(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	if workers <= 1 {
		claim()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	wg.Wait()
}
