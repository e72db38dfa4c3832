package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner fans independent deterministic trials out across a worker pool.
//
// Every sweep in this package is dozens of `RunTrial` calls that share
// nothing: each trial builds its own engine, cluster and seed-forked
// sim.Rand from its TrialConfig. That makes trial-level parallelism free
// of coordination — the only obligations are (1) bounded in-flight
// trials, because a live trial holds a whole fat-tree cluster, and
// (2) results collected in submission (seed) order, so a parallel sweep
// is byte-identical to the serial one at any worker count.
//
// The zero value is ready to use and sizes the pool to
// runtime.GOMAXPROCS(0).
type Runner struct {
	// Workers bounds the number of in-flight trials. <= 0 means
	// GOMAXPROCS; 1 degenerates to the plain serial loop.
	Workers int

	trials atomic.Int64
}

// NewRunner returns a runner with the given pool size (<= 0 means
// GOMAXPROCS).
func NewRunner(workers int) *Runner { return &Runner{Workers: workers} }

// Trials reports how many trials this runner has completed. Every job a
// sweep hands the pool runs exactly one trial, so this is the sweep's
// trial count, counted rather than computed.
func (r *Runner) Trials() int { return int(r.trials.Load()) }

// workers resolves the effective pool size.
func (r *Runner) workers() int {
	if r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// forEach runs fn(0..n-1) across the pool, counts each job that
// succeeds as one trial, and returns the lowest-indexed error. Jobs are
// handed out by an atomic cursor, so at most `workers` trials are in
// flight; on error the remaining jobs are abandoned (in-flight ones
// finish). With one worker it runs the plain serial loop — the
// reference path the parallel one must match.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	workers := r.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
			r.trials.Add(1)
		}
		return nil
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx int
		err    error
	)
	cursor.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if e := fn(i); e != nil {
					mu.Lock()
					if err == nil || i < errIdx {
						err, errIdx = e, i
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				r.trials.Add(1)
			}
		}()
	}
	wg.Wait()
	return err
}

// mapOrdered runs fn(0..n-1) across the pool and returns the results in
// index order, regardless of completion order.
func mapOrdered[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.forEach(n, func(i int) error {
		v, e := fn(i)
		if e != nil {
			return e
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runConfigs executes one trial per config across the pool, results in
// config order.
func (r *Runner) runConfigs(cfgs []TrialConfig) ([]*Trial, error) {
	return mapOrdered(r, len(cfgs), func(i int) (*Trial, error) {
		return RunTrial(cfgs[i])
	})
}
