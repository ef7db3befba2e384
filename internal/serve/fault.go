package serve

import "fmt"

// FaultPhase names the points in a request's lifecycle where the
// Config.FaultHook is consulted. The hook runs with the request's own
// context, so injection plans carried in context values can target one
// request among many — the property that makes fault-injection stress
// tests deterministic under arbitrary goroutine interleavings.
type FaultPhase int

const (
	// FaultAdmitted fires right after the request passes the admission
	// semaphore, before any cache work. It runs outside the panic
	// isolation sections — hooks must not panic here.
	FaultAdmitted FaultPhase = iota
	// FaultBuild fires inside the full-construction critical section,
	// before the hierarchy build, holding the entry lock. An error or
	// panic here exercises the failed-build path (entry dropped, later
	// requests rebuild).
	FaultBuild
	// FaultRefresh fires inside the numeric-refresh critical section,
	// before any value mutation, holding the entry lock. An error here
	// is a pre-mutation rejection (the entry stays usable); a panic
	// retires the entry.
	FaultRefresh
	// FaultSolve fires inside the cached path's solve critical section,
	// with the entry lock held, just before the request's first column
	// is solved. A panic here is the "mid-solve panic" scenario: the
	// request gets an error wrapping ErrPanic, the entry is retired, and
	// requests queued on the entry lock rebuild.
	FaultSolve
	// FaultEscalate fires at the start of each escalation-ladder rung,
	// inside the rung's panic isolation, before the rung's hierarchy
	// build. An error fails the rung (the ladder moves on, or stops on
	// a cancellation); a panic stops the ladder with ErrPanic.
	FaultEscalate
)

// String names the phase for logs and test output.
func (p FaultPhase) String() string {
	switch p {
	case FaultAdmitted:
		return "admitted"
	case FaultBuild:
		return "build"
	case FaultRefresh:
		return "refresh"
	case FaultSolve:
		return "solve"
	case FaultEscalate:
		return "escalate"
	}
	return fmt.Sprintf("FaultPhase(%d)", int(p))
}
