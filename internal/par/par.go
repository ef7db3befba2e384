// Package par provides a small deterministic parallel runtime built on a
// persistent worker pool: blocked parallel-for, reductions, exclusive
// prefix sums (scans), and the join step of in-place worklist
// compaction, plus pooled scratch arenas for allocation-free kernels.
//
// It plays the role Kokkos plays in the paper: every construct here is
// deterministic with respect to the number of workers, because each worker
// writes only to disjoint index ranges and combination steps use a fixed
// blocking that does not depend on scheduling. Blocks are executed by
// long-lived pool goroutines (plus the caller) that claim them from an
// atomic counter; which goroutine runs a block never affects the result.
// See DESIGN.md for the determinism contract.
//
//amg:deterministic
package par

import (
	"runtime"
	"sync"
)

// Runtime executes parallel constructs with a fixed number of workers.
// The worker count determines only the blocking (and hence how much
// concurrency a construct can use); the goroutines doing the work come
// from the shared process-wide pool. The zero value is not ready for
// use; call New.
type Runtime struct {
	workers int
}

// interned holds premade Runtimes for common worker counts, so the
// pervasive New-per-call pattern (facade entry points, setup paths)
// allocates nothing. Runtimes are immutable, making the shared
// instances safe.
var interned [257]Runtime

func init() {
	for i := range interned {
		interned[i] = Runtime{workers: i}
	}
}

// New returns a Runtime with the given number of workers.
// If workers <= 0, runtime.GOMAXPROCS(0) workers are used.
func New(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < len(interned) {
		return &interned[workers]
	}
	return &Runtime{workers: workers}
}

var defaultRuntime struct {
	once sync.Once
	rt   *Runtime
}

// Default returns a process-wide Runtime with GOMAXPROCS workers, for
// operations whose API predates explicit runtimes. All algorithms are
// deterministic for any worker count, so using Default never changes
// results.
func Default() *Runtime {
	defaultRuntime.once.Do(func() { defaultRuntime.rt = New(0) })
	return defaultRuntime.rt
}

// Workers reports the worker count.
func (r *Runtime) Workers() int { return r.workers }

// minGrain is the smallest per-worker chunk worth dispatching to the pool.
const minGrain = 512

// split returns the block count and chunk size For uses for n items —
// the same fixed blocking as the seed implementation, a function of
// (n, workers) only.
func (r *Runtime) split(n int) (nb, chunk int) {
	w := r.workers
	if w == 1 || n <= minGrain {
		return 1, n
	}
	if w > n/minGrain {
		w = n / minGrain
		if w < 1 {
			w = 1
		}
	}
	chunk = (n + w - 1) / w
	return (n + chunk - 1) / chunk, chunk
}

// Serial reports whether For would run a loop over [0, n) inline on the
// caller. Hot kernels use it to bypass the closure-based API entirely,
// keeping single-worker execution allocation-free.
func (r *Runtime) Serial(n int) bool {
	return r.workers == 1 || n <= minGrain
}

// For splits [0, n) into contiguous blocks and calls body(lo, hi) for each
// block, possibly concurrently. body must only write to state owned by
// indices in [lo, hi) for the result to be deterministic.
//
// When the effective worker count is one — a single-worker Runtime, a
// loop too small to split, or a split that collapses to one block — the
// body runs inline on the caller goroutine with no pool handoff: no
// task, no atomics, no channel traffic. Single-thread solves therefore
// pay nothing for the parallel API.
func (r *Runtime) For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nb, chunk := r.split(n)
	if nb == 1 {
		body(0, n)
		return
	}
	dispatch(n, nb, chunk, body)
}

// Blocks returns the block boundaries For would use for n items:
// a slice b with b[0]=0, b[len(b)-1]=n. There are at most Workers()
// blocks. Exposed so that two-pass algorithms (count, then write) can
// share identical blocking.
func (r *Runtime) Blocks(n int) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	nb, chunk := r.split(n)
	b := make([]int, 0, nb+1)
	for lo := 0; lo < n; lo += chunk {
		b = append(b, lo)
	}
	b = append(b, n)
	return b
}

// ForBlocks runs body(b) for each block b in [0, nb), possibly
// concurrently. Intended for block-level two-pass algorithms where each
// index is a whole chunk of work (see Blocks).
func (r *Runtime) ForBlocks(nb int, body func(b int)) {
	if nb <= 0 {
		return
	}
	if nb == 1 || r.workers == 1 {
		for b := 0; b < nb; b++ {
			body(b)
		}
		return
	}
	dispatch(nb, nb, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			body(b)
		}
	})
}

// FirstError runs body over the blocks For would use for [0, n),
// possibly concurrently, and returns the error of the lowest block that
// failed, or nil. When body returns the first failure of its own range,
// the result is the failure with the lowest index, the same at any
// worker count. A single block runs inline on the caller.
func (r *Runtime) FirstError(n int, body func(lo, hi int) error) error {
	if r.Serial(n) {
		return body(0, n)
	}
	blocks := r.Blocks(n)
	errs := make([]error, len(blocks)-1)
	r.ForBlocks(len(errs), func(b int) { errs[b] = body(blocks[b], blocks[b+1]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Integer is the constraint for scan/reduce element types.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// ReduceSum returns the sum of f(i) over [0, n). The reduction order is a
// fixed function of n and the worker count, so the result is deterministic
// (and for integers, order-independent anyway).
func ReduceSum[T Integer](r *Runtime, n int, f func(i int) T) T {
	blocks := r.Blocks(n)
	nb := len(blocks) - 1
	partial := make([]T, nb)
	r.ForBlocks(nb, func(b int) {
		var s T
		for i := blocks[b]; i < blocks[b+1]; i++ {
			s += f(i)
		}
		partial[b] = s
	})
	var total T
	for _, p := range partial {
		total += p
	}
	return total
}

// ScanExclusive computes the exclusive prefix sum of in into out and
// returns the total. out must have len(in)+1 capacity or equal length len(in);
// if len(out) == len(in)+1, out[len(in)] is set to the total.
// in and out may alias.
//
// The computation is blocked: per-block sums, a serial scan over the block
// sums, then a per-block local scan. Identical results for any worker count.
func ScanExclusive[T Integer](r *Runtime, in, out []T) T {
	n := len(in)
	if n == 0 {
		if len(out) > 0 {
			out[0] = 0
		}
		return 0
	}
	blocks := r.Blocks(n)
	nb := len(blocks) - 1
	if nb == 1 {
		var run T
		for i := 0; i < n; i++ {
			v := in[i]
			out[i] = run
			run += v
		}
		if len(out) > n {
			out[n] = run
		}
		return run
	}
	a := AcquireArena()
	sums := Get[T](a, nb)
	offsets := Get[T](a, nb)
	r.ForBlocks(nb, func(b int) {
		var s T
		for i := blocks[b]; i < blocks[b+1]; i++ {
			s += in[i]
		}
		sums[b] = s
	})
	var run T
	for b := 0; b < nb; b++ {
		offsets[b] = run
		run += sums[b]
	}
	total := run
	r.ForBlocks(nb, func(b int) {
		acc := offsets[b]
		for i := blocks[b]; i < blocks[b+1]; i++ {
			v := in[i]
			out[i] = acc
			acc += v
		}
	})
	Put(a, sums)
	Put(a, offsets)
	ReleaseArena(a)
	if len(out) > n {
		out[n] = total
	}
	return total
}

// JoinSegments finishes an in-place, order-preserving worklist
// compaction (Algorithm 1, lines 33-34). The pass that settled the
// predicate ran one ForBlocks block per range [blocks[b], blocks[b+1]) of
// wl, and each block wrote its kept[b] survivors, in order, to the front
// of its own range. JoinSegments moves the segments together in block
// order on the calling goroutine (determinism rule 3) and returns the
// compacted worklist, so the result is the same for any worker count.
// Segment b moves to an offset no larger than blocks[b], so the
// ascending copies never overwrite a segment not yet moved.
func JoinSegments(wl []int32, blocks, kept []int) []int32 {
	k := 0
	for b := 0; b+1 < len(blocks); b++ {
		k += copy(wl[k:], wl[blocks[b]:blocks[b]+kept[b]])
	}
	return wl[:k]
}
