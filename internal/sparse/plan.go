// Symbolic/numeric setup split: cached SpGEMM plans.
//
// AMG setup solves long sequences of systems whose sparsity pattern is
// fixed while the values change (time stepping, Newton, parameter
// sweeps). The expensive part of Gustavson's SpGEMM — the symbolic
// phase that marks each output row's columns and sorts them — depends
// only on the operand patterns, so it can run once and be replayed. The
// symbolic phase is graph.Collect, the builder the fine and coarse
// graphs share, with Gustavson's mark phase as its row walk. A *plan*
// captures its result, the output RowPtr/Col (sorted rows), and nothing
// else. Its Replay method refills a result matrix's values with no
// steady-state allocation on one worker and one closure on more (each
// block borrows its accumulator from a pooled arena). Product, transpose and smooth plans never change
// after planning, so any number of goroutines may replay one at once
// into separate results. A RAPPlan stages A*P in a buffer it owns, so
// it runs one replay at a time.
//
// A plan trusts its caller to replay it on operands with the planned
// patterns: Replay checks shapes and stored-entry counts, which is
// O(1), but never the patterns themselves, which would be O(nnz).
// Callers that accept matrices from outside check the pattern once at
// that boundary. The one such boundary is amg.Hierarchy's BuildNumeric
// and Refresh (checkSamePattern).
//
// The value order is a contract. A product replay computes each entry
// of C = A*B as Gustavson's row-by-row product does: its first
// contribution exactly, then every later one added in turn, walking A's
// row in stored order and each A entry's B row in stored order. Every
// row comes out with its columns ascending. A smooth replay scales each
// entry of A's row i by dinv[i] before it multiplies, then writes
// p0 + -omega*acc where P0 and the product both store the entry,
// -omega*acc where only the product does, and P0's value where only P0
// does. A RAP replay is the product R*(A*P), and a transpose replay is
// an exact value copy. The serial reference in ref_test.go states the
// contract in plain code; the plan tests and FuzzProductPlan hold every
// replay to it bit for bit. Replays are deterministic for any worker
// count, and a plan built at one worker count replays identically at
// any other.
package sparse

import (
	"fmt"
	"math"

	"mis2go/internal/graph"
	"mis2go/internal/par"
)

// pattern is what a product or smooth plan holds: the row-sorted output
// RowPtr/Col. A smooth plan adds one flag per entry, also a function of
// the operand patterns alone. The slices are shared with matrices
// returned by NewMatrix and must not be mutated.
type pattern struct {
	ptr []int
	col []int32
	// p0Only[k] marks a smooth-plan entry that only P0 stores: no
	// product contribution reaches it, so it keeps P0's value exactly.
	// nil for a product plan.
	p0Only []bool
}

// newMatrix returns a rows x cols matrix with the pattern and zeroed
// values, sharing RowPtr/Col with the plan.
func (pt *pattern) newMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, RowPtr: pt.ptr, Col: pt.col, Val: make([]float64, len(pt.col))}
}

// valuePass is one replay: the operands and the result values. A
// product pass leaves dinv nil. A smooth pass scales A's row i by
// dinv[i], has P0 as b, and merges the product with P0 on write-out.
type valuePass struct {
	a, b  *Matrix
	out   []float64
	dinv  []float64
	omega float64
}

// negZero is −0, the IEEE additive identity: −0 + x == x bit for bit for
// every x, ±0 included (+0 is not one: +0 + −0 == +0).
var negZero = math.Copysign(0, -1)

// replay runs the value kernel over every output row. Rows are
// independent, so the result is the same at any worker count.
//
//amg:hotpath
func (pt *pattern) replay(rt *par.Runtime, v valuePass, cols int) {
	rows := len(pt.ptr) - 1
	if rt.Serial(rows) {
		pt.replayRows(v, cols, 0, rows)
		return
	}
	rt.For(rows, func(lo, hi int) { pt.replayRows(v, cols, lo, hi) })
}

// replayRows runs valueRows over rows [lo, hi) with a dense accumulator
// of width cols, borrowed from an arena for the call.
//
//amg:hotpath
func (pt *pattern) replayRows(v valuePass, cols, lo, hi int) {
	ar := par.AcquireArena()
	acc := par.Get[float64](ar, cols)
	pt.valueRows(v, acc, lo, hi)
	par.Put(ar, acc)
	par.ReleaseArena(ar)
}

// valueRows is the one value kernel of product and smooth plans. For
// each row i in [lo, hi) it seeds acc with −0 at the row's planned
// columns, adds every a(i,p)*b(p,j) (a smooth pass scales a(i,p) by
// dinv[i] first) in Gustavson's order — A entries in stored order, each
// over its B row — and writes the row out through the sorted pattern.
//
// The −0 seed makes the accumulation branch-free and keeps the order
// contract (package comment): an entry's first add stores exactly its
// first product (−0 + x == x), and every later product is added in
// turn. The sorted pattern writes each row with its columns ascending,
// and a smooth pass writes p0 + -omega*acc, -omega*acc or p0 per entry.
// refMultiply and refSmooth (ref_test.go) are the serial witness.
//
//amg:hotpath
func (pt *pattern) valueRows(v valuePass, acc []float64, lo, hi int) {
	ap, ac, av := v.a.RowPtr, v.a.Col, v.a.Val
	bp, bc, bv := v.b.RowPtr, v.b.Col, v.b.Val
	smooth := v.dinv != nil
	for i := lo; i < hi; i++ {
		cols := pt.col[pt.ptr[i]:pt.ptr[i+1]]
		out := v.out[pt.ptr[i]:pt.ptr[i+1]]
		for _, j := range cols {
			acc[j] = negZero
		}
		di := 1.0
		if smooth {
			di = v.dinv[i]
		}
		for p := ap[i]; p < ap[i+1]; p++ {
			ak := av[p]
			if smooth {
				ak = di * ak
			}
			q0, q1 := bp[ac[p]], bp[ac[p]+1]
			brow, bval := bc[q0:q1], bv[q0:q1]
			bval = bval[:len(brow)] // lets the compiler drop bval's per-entry bounds check
			for t, j := range brow {
				acc[j] += ak * bval[t]
			}
		}
		if !smooth {
			for k, j := range cols {
				out[k] = acc[j]
			}
			continue
		}
		p0Only := pt.p0Only[pt.ptr[i]:pt.ptr[i+1]]
		pq, eq := bp[i], bp[i+1]
		for k, j := range cols {
			switch {
			case p0Only[k]:
				out[k] = bv[pq]
				pq++
			case pq < eq && bc[pq] == j:
				out[k] = bv[pq] + -v.omega*acc[j]
				pq++
			default:
				out[k] = -v.omega * acc[j]
			}
		}
	}
}

// ProductPlan is the cached symbolic phase of the SpGEMM C = A*B: its
// row-sorted pattern for fixed operand patterns. Create with PlanMultiply; replay
// values with Replay. A plan never changes after planning, so
// goroutines may replay it at once into separate results.
type ProductPlan struct {
	aRows, aCols, bCols int
	aNNZ, bNNZ          int
	pattern
}

// PlanMultiply computes the pattern of C = A*B and returns the reusable
// plan. Only the operand patterns are read, never the values.
func PlanMultiply(rt *par.Runtime, a, b *Matrix) (*ProductPlan, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	pl := &ProductPlan{aRows: a.Rows, aCols: a.Cols, bCols: b.Cols, aNNZ: a.NNZ(), bNNZ: b.NNZ()}
	pat := graph.Collect(rt, a.Rows, b.Cols, a.nnzIn, func(i int, mark, buf []int32) []int32 {
		return appendProductCols(a, b, i, mark, buf)
	})
	pl.ptr, pl.col = pat.RowPtr, pat.Col
	return pl, nil
}

// appendProductCols appends to buf the columns of row i of A*B that are
// not yet stamped with i, stamping each (Gustavson's mark phase).
func appendProductCols(a, b *Matrix, i int, mark, buf []int32) []int32 {
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		row := a.Col[p]
		for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
			if j := b.Col[q]; mark[j] != int32(i) {
				mark[j] = int32(i)
				buf = append(buf, j)
			}
		}
	}
	return buf
}

// appendUnstamped appends to buf the columns in cols not yet stamped
// with i, stamping each.
func appendUnstamped(cols []int32, i int32, mark, buf []int32) []int32 {
	for _, j := range cols {
		if mark[j] != i {
			mark[j] = i
			buf = append(buf, j)
		}
	}
	return buf
}

// NNZ returns the number of stored entries of the planned product.
func (pl *ProductPlan) NNZ() int { return len(pl.col) }

// NewMatrix returns a result matrix with the plan's pattern and zeroed
// values, ready for Replay. The RowPtr/Col slices are shared with the
// plan (both treat the pattern as immutable).
func (pl *ProductPlan) NewMatrix() *Matrix { return pl.newMatrix(pl.aRows, pl.bCols) }

// Replay replays the plan for new operand values: c.Val is overwritten
// with the values of A*B in the order the package comment states, with
// zero allocations in steady state. A and B must have
// the planned patterns, and c must carry the plan's pattern — normally
// a matrix from NewMatrix; only shapes and stored-entry counts are
// checked.
//
//amg:hotpath
func (pl *ProductPlan) Replay(rt *par.Runtime, a, b, c *Matrix) error {
	if err := pl.checkShapes(a, b, c); err != nil {
		return err
	}
	pl.replay(rt, valuePass{a: a, b: b, out: c.Val}, pl.bCols)
	return nil
}

// checkShapes verifies the O(1) replay preconditions: operand and result
// dimensions and stored-entry counts.
func (pl *ProductPlan) checkShapes(a, b, c *Matrix) error {
	if a.Rows != pl.aRows || a.Cols != pl.aCols || b.Rows != pl.aCols || b.Cols != pl.bCols {
		return fmt.Errorf("sparse: plan replay dimension mismatch %dx%d * %dx%d (planned %dx%d * %dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, pl.aRows, pl.aCols, pl.aCols, pl.bCols)
	}
	if a.NNZ() != pl.aNNZ || b.NNZ() != pl.bNNZ {
		return fmt.Errorf("sparse: plan replay stored-entry mismatch: A %d, B %d (planned %d, %d)",
			a.NNZ(), b.NNZ(), pl.aNNZ, pl.bNNZ)
	}
	if c.Rows != pl.aRows || c.Cols != pl.bCols || len(c.Col) != len(pl.col) || len(c.Val) != len(pl.col) {
		return fmt.Errorf("sparse: plan replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

// TransposePlan is the cached symbolic phase of Transpose: the transposed
// pattern plus the entry permutation, so a replay is a values-only
// permuted copy.
type TransposePlan struct {
	rows, cols int
	ptr        []int
	col        []int32
	// perm[p] is the output position of input entry p.
	perm []int32
}

// PlanTranspose computes the pattern of A^T and the entry permutation.
// The permutation is 32-bit: A must hold at most math.MaxInt32 entries
// (amg checks its prolongators before planning), and a larger A is a
// caller bug that panics here, at plan time.
func PlanTranspose(rt *par.Runtime, a *Matrix) *TransposePlan {
	if len(a.Col) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: transpose plan of a matrix with %d entries overflows its 32-bit permutation", len(a.Col)))
	}
	pl := &TransposePlan{rows: a.Rows, cols: a.Cols}
	pl.perm = make([]int32, len(a.Col))
	pl.ptr, pl.col, _ = a.transposeBlocked(rt, a.Cols, false, pl.perm)
	return pl
}

// NewMatrix returns a transpose-shaped matrix with the plan's pattern and
// zeroed values, ready for Replay. RowPtr/Col are shared with the plan.
func (pl *TransposePlan) NewMatrix() *Matrix {
	return &Matrix{Rows: pl.cols, Cols: pl.rows, RowPtr: pl.ptr, Col: pl.col, Val: make([]float64, len(pl.col))}
}

// Replay replays the transpose for new values: t.Val[perm[p]] = a.Val[p].
// Bitwise identical to Transpose (an exact value copy) and
// allocation-free. A must have the planned pattern (see
// ProductPlan.Replay for the contract).
//
//amg:hotpath
func (pl *TransposePlan) Replay(rt *par.Runtime, a, t *Matrix) error {
	if err := pl.checkShapes(a, t); err != nil {
		return err
	}
	pl.replay(rt, a, t)
	return nil
}

func (pl *TransposePlan) checkShapes(a, t *Matrix) error {
	if a.Rows != pl.rows || a.Cols != pl.cols || len(a.Val) != len(pl.perm) {
		return fmt.Errorf("sparse: transpose replay dimension mismatch %dx%d (planned %dx%d)", a.Rows, a.Cols, pl.rows, pl.cols)
	}
	if t.Rows != pl.cols || t.Cols != pl.rows || len(t.Val) != len(pl.perm) {
		return fmt.Errorf("sparse: transpose replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

//amg:hotpath
func (pl *TransposePlan) replay(rt *par.Runtime, a, t *Matrix) {
	nnz := len(pl.perm)
	if rt.Serial(nnz) {
		pl.scatterRange(a, t, 0, nnz)
		return
	}
	rt.For(nnz, func(lo, hi int) {
		pl.scatterRange(a, t, lo, hi)
	})
}

//amg:hotpath
func (pl *TransposePlan) scatterRange(a, t *Matrix, lo, hi int) {
	for p := lo; p < hi; p++ {
		t.Val[pl.perm[p]] = a.Val[p]
	}
}

// SmoothPlan is the cached symbolic phase of the smoothed prolongator
// (I - omega*D^{-1}*A)*P0: the union pattern of the product D^{-1}A*P0
// and P0 itself, row-sorted, with its P0-only entries flagged.
type SmoothPlan struct {
	aRows, aCols, p0Cols int
	aNNZ, p0NNZ          int
	pattern
}

// PlanSmoothProlongator computes the pattern of (I - omega*D^{-1}*A)*P0,
// which depends only on the patterns of A and P0 (dinv and omega scale
// values, never the pattern).
func PlanSmoothProlongator(rt *par.Runtime, a, p0 *Matrix) (*SmoothPlan, error) {
	if a.Cols != p0.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, p0.Rows, p0.Cols)
	}
	pl := &SmoothPlan{aRows: a.Rows, aCols: a.Cols, p0Cols: p0.Cols, aNNZ: a.NNZ(), p0NNZ: p0.NNZ()}
	// The union of the product row and the P0 row, sorted, is exactly
	// the pattern the smooth merge writes.
	pat := graph.Collect(rt, a.Rows, p0.Cols, a.nnzIn, func(i int, mark, buf []int32) []int32 {
		buf = appendProductCols(a, p0, i, mark, buf)
		return appendUnstamped(p0.Col[p0.RowPtr[i]:p0.RowPtr[i+1]], int32(i), mark, buf)
	})
	pl.ptr, pl.col = pat.RowPtr, pat.Col
	// An entry is P0-only when no column of its product row stamps it.
	pl.p0Only = make([]bool, len(pl.col))
	rt.For(a.Rows, func(lo, hi int) {
		ar := par.AcquireArena()
		mark := par.Get[int32](ar, p0.Cols)
		for j := range mark {
			mark[j] = -1
		}
		for i := lo; i < hi; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				row := a.Col[p]
				for q := p0.RowPtr[row]; q < p0.RowPtr[row+1]; q++ {
					mark[p0.Col[q]] = int32(i)
				}
			}
			for k := pl.ptr[i]; k < pl.ptr[i+1]; k++ {
				pl.p0Only[k] = mark[pl.col[k]] != int32(i)
			}
		}
		par.Put(ar, mark)
		par.ReleaseArena(ar)
	})
	return pl, nil
}

// NewMatrix returns a smoothed-prolongator-shaped matrix with the plan's
// pattern and zeroed values. RowPtr/Col are shared with the plan.
func (pl *SmoothPlan) NewMatrix() *Matrix { return pl.newMatrix(pl.aRows, pl.p0Cols) }

// Replay replays the plan for new values of A (and a new dinv/omega):
// out.Val is overwritten with (I - omega*D^{-1}*A)*P0, allocation-free
// in steady state. A and P0 must have the planned patterns (see
// ProductPlan.Replay for the contract).
//
//amg:hotpath
func (pl *SmoothPlan) Replay(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64, out *Matrix) error {
	if err := pl.checkShapes(a, p0, dinv, out); err != nil {
		return err
	}
	pl.replay(rt, valuePass{a: a, b: p0, out: out.Val, dinv: dinv, omega: omega}, pl.p0Cols)
	return nil
}

func (pl *SmoothPlan) checkShapes(a, p0 *Matrix, dinv []float64, out *Matrix) error {
	if a.Rows != pl.aRows || a.Cols != pl.aCols || p0.Rows != pl.aCols || p0.Cols != pl.p0Cols {
		return fmt.Errorf("sparse: smooth replay dimension mismatch %dx%d * %dx%d (planned %dx%d * %dx%d)",
			a.Rows, a.Cols, p0.Rows, p0.Cols, pl.aRows, pl.aCols, pl.aCols, pl.p0Cols)
	}
	if a.NNZ() != pl.aNNZ || p0.NNZ() != pl.p0NNZ {
		return fmt.Errorf("sparse: smooth replay stored-entry mismatch: A %d, P0 %d (planned %d, %d)",
			a.NNZ(), p0.NNZ(), pl.aNNZ, pl.p0NNZ)
	}
	if len(dinv) != a.Rows {
		return fmt.Errorf("sparse: dinv length %d, want %d", len(dinv), a.Rows)
	}
	if out.Rows != pl.aRows || out.Cols != pl.p0Cols || len(out.Col) != len(pl.col) || len(out.Val) != len(pl.col) {
		return fmt.Errorf("sparse: smooth replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

// RAPPlan is the cached symbolic phase of the Galerkin triple product
// R*A*P: two chained product plans plus the plan-owned intermediate A*P,
// whose value buffer is refilled in place on every replay.
type RAPPlan struct {
	ap      *Matrix
	apPlan  *ProductPlan
	rapPlan *ProductPlan
}

// PlanRAP computes the patterns of AP = A*P and R*AP. Only operand
// patterns are read.
func PlanRAP(rt *par.Runtime, r, a, p *Matrix) (*RAPPlan, error) {
	apPlan, err := PlanMultiply(rt, a, p)
	if err != nil {
		return nil, err
	}
	ap := apPlan.NewMatrix()
	rapPlan, err := PlanMultiply(rt, r, ap)
	if err != nil {
		return nil, err
	}
	return &RAPPlan{ap: ap, apPlan: apPlan, rapPlan: rapPlan}, nil
}

// NNZ returns the number of stored entries of the planned coarse operator.
func (pl *RAPPlan) NNZ() int { return pl.rapPlan.NNZ() }

// NewMatrix returns a coarse-operator matrix with the plan's pattern and
// zeroed values, ready for Replay.
func (pl *RAPPlan) NewMatrix() *Matrix { return pl.rapPlan.NewMatrix() }

// Replay replays the triple product for new values: out.Val is
// overwritten with R*A*P, staging A*P in the plan-owned intermediate,
// allocation-free in steady state. R, A and P must have the planned
// patterns; the intermediate is plan-owned, so only the caller-supplied
// operands' shapes and stored-entry counts are checked. The intermediate also means one RAPPlan must not run two
// replays at once.
//
//amg:hotpath
func (pl *RAPPlan) Replay(rt *par.Runtime, r, a, p, out *Matrix) error {
	if err := pl.apPlan.Replay(rt, a, p, pl.ap); err != nil {
		return err
	}
	return pl.rapPlan.Replay(rt, r, pl.ap, out)
}
