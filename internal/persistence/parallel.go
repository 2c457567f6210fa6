package persistence

import "sync"

// Recovery parallelism helpers. Recovery runs before the engine's scheduler
// exists, so the fan-out here uses plain bounded goroutines rather than
// scheduler tasks.

// runParallel invokes fn(0..n-1) with at most workers goroutines in flight.
// workers <= 1 (or n <= 1) degrades to a plain serial loop.
func runParallel(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}
