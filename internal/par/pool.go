package par

import (
	"sync"
	"sync/atomic"
)

// The persistent worker pool. Instead of spawning fresh goroutines on
// every For/ForBlocks call (the Go analogue of relaunching a Kokkos
// kernel), all Runtimes share one process-wide set of long-lived
// workers. A parallel construct packages its blocks into a task; the
// submitting goroutine and any idle workers claim blocks from an atomic
// counter until none remain.
//
// Determinism is unaffected by which goroutine runs which block: block
// boundaries are a fixed function of (n, Runtime.workers) — see Blocks —
// every block writes only to state owned by its index range, and all
// combination steps (scan offsets, reduction partials) read per-block
// results in block order. Work stealing changes the schedule, never the
// result.
//
// Workers hold no state of their own. A block that needs scratch
// borrows an arena with AcquireArena and releases it before it returns.

// task is one dispatched parallel construct. Block b covers
// [b*chunk, min((b+1)*chunk, n)).
type task struct {
	n, nb, chunk int
	body         func(lo, hi int)

	next atomic.Int64 // next unclaimed block
	left atomic.Int64 // blocks not yet completed
	refs atomic.Int64 // outstanding references (caller + queued tokens)
	// done receives one token from the goroutine that completes the
	// final block, iff that goroutine is not the caller.
	done chan struct{}
}

var taskPool = sync.Pool{New: func() any {
	return &task{done: make(chan struct{}, 1)}
}}

// work claims and executes blocks until none remain, returning the
// number of blocks executed.
func (t *task) work() int64 {
	var did int64
	for {
		b := int(t.next.Add(1) - 1)
		if b >= t.nb {
			return did
		}
		lo := b * t.chunk
		t.body(lo, min(lo+t.chunk, t.n))
		did++
	}
}

// release drops one reference; the last reference recycles the task.
func (t *task) release() {
	if t.refs.Add(-1) == 0 {
		t.body = nil
		taskPool.Put(t)
	}
}

// pool is the process-wide worker set. Workers are spawned lazily up to
// the demand of the largest Runtime, so a Runtime with more workers than
// GOMAXPROCS still gets real goroutines (the seed behavior under the
// race detector and on oversubscribed machines).
var pool struct {
	mu      sync.Mutex
	workers int
	tasks   chan *task
}

const maxPoolWorkers = 256

func init() {
	pool.tasks = make(chan *task, 4*maxPoolWorkers)
}

// ensureWorkers grows the pool to at least n workers.
func ensureWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	pool.mu.Lock()
	for pool.workers < n {
		pool.workers++
		go func() {
			for t := range pool.tasks {
				if did := t.work(); did > 0 && t.left.Add(-did) == 0 {
					t.done <- struct{}{}
				}
				t.release()
			}
		}()
	}
	pool.mu.Unlock()
}

// dispatch runs body over nb chunk-sized blocks of [0, n) with pool
// assistance. nb is at least 2: For and ForBlocks run single-block
// constructs inline on their own fast paths, so dispatch only ever sees
// work worth sharing. The caller always participates, so progress never
// depends on pool capacity; a full task queue just means fewer helpers.
func dispatch(n, nb, chunk int, body func(lo, hi int)) {
	t := taskPool.Get().(*task)
	t.n, t.nb, t.chunk = n, nb, chunk
	t.body = body
	t.next.Store(0)
	t.left.Store(int64(nb))
	t.refs.Store(1)

	helpers := nb - 1
	ensureWorkers(helpers)
	sent := 0
	for i := 0; i < helpers; i++ {
		// Take the reference before the send: once the task is in the
		// channel a worker may drain and release it immediately, and the
		// caller's own reference (held until the end of dispatch) must
		// never be the only thing keeping a sent-but-unaccounted token
		// alive.
		t.refs.Add(1)
		select {
		case pool.tasks <- t:
			sent++
			continue
		default:
		}
		t.refs.Add(-1) // send failed; caller still holds its own ref
		break          // queue full; remaining helpers would not fit either
	}

	did := t.work()
	callerDone := did > 0 && t.left.Add(-did) == 0
	if sent > 0 && !callerDone {
		// A worker holds (or will complete) the final block and sends
		// exactly one token.
		<-t.done
	}
	t.release()
}
