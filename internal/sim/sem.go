package sim

import (
	"context"
	"runtime"
	"sync/atomic"
)

// The process-global CPU semaphore. Every simulation fan-out — runAll's
// per-(workload, mode) jobs, runTraces' per-trace workers, the live
// stream's run-ahead producer, and any nested sweep a server worker
// starts — draws goroutines from this one pool, so concurrent callers
// compose to at most GOMAXPROCS token holders instead of multiplying it
// (the oversubscription bug each runAll call's private runtime.NumCPU()
// semaphore used to cause). A caller that holds no token still works
// beside the ones it spawns, so under GOMAXPROCS=1 a sweep runs its jobs
// one at a time, but a direct RunWorkload call may run beside one worker
// or producer.
//
// Deadlock discipline: only top-level job dispatch blocks in Acquire;
// everything nested (per-trace fan-out, run-ahead) uses TryAcquire and
// falls back to running on the goroutine it already has. A held token
// therefore never waits on another token.
var cpuSem atomic.Pointer[sem]

func init() {
	cpuSem.Store(newSem(runtime.GOMAXPROCS(0)))
}

// acquireSem returns the current global semaphore. Callers must pair
// Acquire/TryAcquire and Release on the same returned value, so a
// concurrent SetParallelism cannot unbalance the new semaphore.
func acquireSem() *sem { return cpuSem.Load() }

// SetParallelism bounds the number of concurrently executing
// simulation goroutines process-wide (minimum 1). It replaces the
// global semaphore, so it must not be called while runs are in flight
// (tests and process startup are the intended callers). It returns the
// previous bound.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	old := cpuSem.Swap(newSem(n))
	return cap(old.ch)
}

// Parallelism reports the current process-wide simulation concurrency
// bound.
func Parallelism() int { return cap(cpuSem.Load().ch) }

// sem is a counting semaphore with a context-aware blocking acquire
// and a non-blocking acquire for opportunistic nested fan-out.
type sem struct {
	ch chan struct{}
}

func newSem(n int) *sem {
	return &sem{ch: make(chan struct{}, n)}
}

// Acquire blocks until a token is available or ctx is done.
func (s *sem) Acquire(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case s.ch <- struct{}{}:
		return nil
	}
}

// TryAcquire takes a token only if one is free right now.
func (s *sem) TryAcquire() bool {
	select {
	case s.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token.
func (s *sem) Release() { <-s.ch }
