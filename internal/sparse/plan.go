// Symbolic/numeric setup split: cached SpGEMM plans.
//
// AMG setup solves long sequences of systems whose sparsity pattern is
// fixed while the values change (time stepping, Newton, parameter
// sweeps). The expensive part of Gustavson's SpGEMM — the mark/merge
// symbolic phase that discovers each output row's pattern — depends only
// on the operand patterns, so it can run once and be replayed. A *plan*
// captures that symbolic result: the output RowPtr/Col (sorted rows) plus
// a fingerprint of the operand patterns, and its Numeric method refills a
// result matrix's values with zero steady-state allocations (accumulator
// scratch comes from the worker arenas).
//
// Every replay is bitwise identical to the corresponding one-shot kernel
// (Multiply, Transpose, SmoothProlongator, RAP): the per-row accumulation
// order is the same, and gathering through the pre-sorted pattern visits
// entries in exactly the order the one-shot kernel writes them after its
// row sort. Replays are deterministic for any worker count, and a plan
// built at one worker count replays identically at any other.
package sparse

import (
	"fmt"
	"math"

	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// fingerprint returns the pattern fingerprint of a matrix.
func fingerprint(a *Matrix) uint64 {
	return hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col)
}

// ProductPlan is the cached symbolic phase of Multiply: the pattern of
// C = A*B for fixed operand patterns. Create with PlanMultiply; replay
// values with Numeric. The plan's pattern slices are shared with
// matrices returned by NewMatrix and must not be mutated. A value pass
// may build the plan's gather schedule, so one plan must not run two
// value passes concurrently.
type ProductPlan struct {
	aRows, aCols, bCols int
	aFP, bFP            uint64
	ptr                 []int
	col                 []int32
	// passes counts value passes, saturating at 2. The first pass runs
	// the mark/acc kernel. The gather schedule is built just before the
	// second (unless the product is over its bound), so a plan replayed
	// only once — a cold AMG build — never pays for one.
	passes uint8
	// The gather schedule: output entry k is the sum of
	// a.Val[aIdx[t]]*b.Val[bIdx[t]] for t in [entryPtr[k], entryPtr[k+1]),
	// accumulated in stored order — exactly the order Gustavson's fused
	// kernel touches those contributions, so a schedule replay is bitwise
	// identical to it while running branch-free with no accumulator
	// scratch. It holds 8 bytes per multiply-add. nil before the second
	// value pass, and for good when the product is over its bound.
	entryPtr   []int
	aIdx, bIdx []int32
}

// PlanMultiply computes the pattern of C = A*B and returns the reusable
// plan. Only the operand patterns are read, never the values.
func PlanMultiply(rt *par.Runtime, a, b *Matrix) (*ProductPlan, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	pl := &ProductPlan{
		aRows: a.Rows, aCols: a.Cols, bCols: b.Cols,
		aFP: fingerprint(a), bFP: fingerprint(b),
	}
	pl.ptr, pl.col = collectPattern(rt, a, b.Cols, func(i int, mark, buf []int32) []int32 {
		return appendProductCols(a, b, i, mark, buf)
	})
	return pl, nil
}

// collectPattern builds a row-sorted pattern with one walk of the flop
// structure: row(i, mark, buf) appends the distinct columns of output
// row i to buf, stamping mark[j] = i for each. Each row block of A
// collects into its own buffer, a scan of the row counts places the
// blocks, and every row is sorted where it lands. A row's column set is
// fixed by the patterns, so the output is byte-identical at any worker
// count.
func collectPattern(rt *par.Runtime, a *Matrix, cols int, row func(i int, mark, buf []int32) []int32) ([]int, []int32) {
	ptr := make([]int, a.Rows+1)
	blocks := rt.Blocks(a.Rows)
	bufs := make([][]int32, len(blocks)-1)
	rt.ForBlocks(len(bufs), func(blk int) {
		lo, hi := blocks[blk], blocks[blk+1]
		ar := par.AcquireArena()
		mark := par.Get[int32](ar, cols)
		for i := range mark {
			mark[i] = -1
		}
		buf := make([]int32, 0, a.RowPtr[hi]-a.RowPtr[lo])
		for i := lo; i < hi; i++ {
			n := len(buf)
			buf = row(i, mark, buf)
			ptr[i] = len(buf) - n
		}
		bufs[blk] = buf
		par.Put(ar, mark)
		par.ReleaseArena(ar)
	})
	col := make([]int32, par.ScanExclusive(rt, ptr[:a.Rows], ptr))
	rt.ForBlocks(len(bufs), func(blk int) {
		copy(col[ptr[blocks[blk]]:], bufs[blk])
		for i := blocks[blk]; i < blocks[blk+1]; i++ {
			sortRow(col[ptr[i]:ptr[i+1]])
		}
	})
	return ptr, col
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

// maxScheduleFlopsFactor bounds the gather schedule's memory: the
// schedule stores 8 bytes per multiply-add, so a product whose flop
// count exceeds this multiple of the combined operand/result sizes
// (dense-ish rows, far outside the mesh/Galerkin regime the schedule
// targets) would let the plan dwarf the matrices it serves. Such plans
// keep the mark/acc replay, which is bitwise identical.
const maxScheduleFlopsFactor = 8

// advance moves the plan's schedule lifecycle on by one value pass, just
// before the pass runs: the pass that makes it two builds the schedule.
// The build costs about what 3–6 schedule replays save over mark/acc,
// and a pattern replayed twice is, on the measured workloads, replayed
// far more often than that (DESIGN.md, "Why the second pass"). It is
// the only caller of buildSchedule, and no //amg:hotpath function calls
// it.
func (pl *ProductPlan) advance(rt *par.Runtime, a, b *Matrix) {
	if pl.passes < 2 {
		pl.passes++
		if pl.passes == 2 {
			pl.buildSchedule(rt, a, b)
		}
	}
}

// buildSchedule records, for every output entry, its (aIdx, bIdx)
// contribution pairs in the exact order the fused Gustavson kernel
// accumulates them: per row, A entries in order, each expanded over its
// B row. The flop total comes first, from row lengths alone in
// O(nnz(A)); a product over the int32 limit or the memory bound stops
// there, before any schedule storage exists. Each row then owns the
// contiguous pair range its flop offset gives, and one parallel pass
// over rows counts the row's pairs per entry and writes them while the
// row is still in cache (disjoint writes: deterministic for any worker
// count, and independent of the planning worker count).
func (pl *ProductPlan) buildSchedule(rt *par.Runtime, a, b *Matrix) {
	nnz := len(pl.col)
	if len(a.Val) > math.MaxInt32 || len(b.Val) > math.MaxInt32 {
		return
	}
	car := par.AcquireArena()
	defer par.ReleaseArena(car)
	rowOff := par.Get[int](car, pl.aRows+1)
	defer par.Put(car, rowOff)
	rt.For(pl.aRows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := 0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				row := a.Col[p]
				f += b.RowPtr[row+1] - b.RowPtr[row]
			}
			rowOff[i] = f
		}
	})
	total := par.ScanExclusive(rt, rowOff[:pl.aRows], rowOff)
	if total > math.MaxInt32 || total > maxScheduleFlopsFactor*(len(a.Col)+len(b.Col)+nnz) {
		return
	}
	entryPtr := make([]int, nnz+1)
	entryPtr[nnz] = total
	pl.aIdx = make([]int32, total)
	pl.bIdx = make([]int32, total)
	// cur first counts each entry's pairs, then serves as its write
	// cursor; pos maps a column to its entry within the current row
	// (only the row's own columns are read back, so no clearing between
	// rows is needed).
	par.ForWith(rt, pl.aRows,
		func(ar *par.Arena) scheduleScratch {
			return scheduleScratch{
				pos: par.Get[int32](ar, pl.bCols),
				cur: par.Get[int](ar, maxRowNNZ(pl.ptr, pl.aRows)),
			}
		},
		func(lo, hi int, s scheduleScratch) {
			for i := lo; i < hi; i++ {
				base := pl.ptr[i]
				cur := s.cur[:pl.ptr[i+1]-base]
				for k := range cur {
					s.pos[pl.col[base+k]] = int32(k)
					cur[k] = 0
				}
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					row := a.Col[p]
					for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
						cur[s.pos[b.Col[q]]]++
					}
				}
				t := rowOff[i]
				for k, n := range cur {
					entryPtr[base+k] = t
					cur[k] = t
					t += n
				}
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					row := a.Col[p]
					for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
						e := s.pos[b.Col[q]]
						pl.aIdx[cur[e]] = int32(p)
						pl.bIdx[cur[e]] = int32(q)
						cur[e]++
					}
				}
			}
		},
		func(ar *par.Arena, s scheduleScratch) {
			par.Put(ar, s.pos)
			par.Put(ar, s.cur)
		})
	pl.entryPtr = entryPtr
}

// scheduleScratch is the per-participant state of the schedule build:
// the column→entry position map and the per-entry pair counts/write
// cursors of the current row.
type scheduleScratch struct {
	pos []int32
	cur []int
}

// maxRowNNZ returns the largest output-row length, sizing the per-row
// cursor scratch.
func maxRowNNZ(ptr []int, rows int) int {
	m := 0
	for i := 0; i < rows; i++ {
		if l := ptr[i+1] - ptr[i]; l > m {
			m = l
		}
	}
	return m
}

// NNZ returns the number of stored entries of the planned product.
func (pl *ProductPlan) NNZ() int { return len(pl.col) }

// NewMatrix returns a result matrix with the plan's pattern and zeroed
// values, ready for Numeric. The RowPtr/Col slices are shared with the
// plan (both treat the pattern as immutable).
func (pl *ProductPlan) NewMatrix() *Matrix {
	return &Matrix{Rows: pl.aRows, Cols: pl.bCols, RowPtr: pl.ptr, Col: pl.col, Val: make([]float64, len(pl.col))}
}

// Numeric replays the plan for new operand values: c.Val is overwritten
// with the values of A*B. A and B must have the planned patterns
// (verified via fingerprint), and c must carry the plan's pattern —
// normally a matrix from NewMatrix. The first pass runs the mark/acc
// kernel; the second builds the gather schedule once (allocating it),
// and it and every later pass replay through it with zero allocations.
// Every pass is bitwise identical to Multiply on the same operands.
func (pl *ProductPlan) Numeric(rt *par.Runtime, a, b, c *Matrix) error {
	if err := pl.checkShapes(a, b, c); err != nil {
		return err
	}
	if fingerprint(a) != pl.aFP {
		return fmt.Errorf("sparse: plan replay: pattern of A changed since PlanMultiply")
	}
	if fingerprint(b) != pl.bFP {
		return fmt.Errorf("sparse: plan replay: pattern of B changed since PlanMultiply")
	}
	pl.advance(rt, a, b)
	pl.numeric(rt, a, b, c)
	return nil
}

// Replay is Numeric without the O(nnz) fingerprint verification, for
// callers that already guarantee the operand patterns match the plan —
// e.g. an AMG hierarchy that fingerprint-checks its fine matrix once per
// refresh and owns every other operand. Shapes and pattern sizes are
// still checked. Like Numeric, the second pass builds the schedule.
func (pl *ProductPlan) Replay(rt *par.Runtime, a, b, c *Matrix) error {
	if err := pl.checkShapes(a, b, c); err != nil {
		return err
	}
	pl.advance(rt, a, b)
	pl.numeric(rt, a, b, c)
	return nil
}

// checkShapes verifies the O(1) replay preconditions: operand and result
// dimensions and stored-entry counts.
func (pl *ProductPlan) checkShapes(a, b, c *Matrix) error {
	if a.Rows != pl.aRows || a.Cols != pl.aCols || b.Rows != pl.aCols || b.Cols != pl.bCols {
		return fmt.Errorf("sparse: plan replay dimension mismatch %dx%d * %dx%d (planned %dx%d * %dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, pl.aRows, pl.aCols, pl.aCols, pl.bCols)
	}
	if c.Rows != pl.aRows || c.Cols != pl.bCols || len(c.Col) != len(pl.col) || len(c.Val) != len(pl.col) {
		return fmt.Errorf("sparse: plan replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

// numeric is the unchecked value pass. With a gather schedule it is a
// branch-free multiply-add stream over the cached (aIdx, bIdx) pairs;
// before the schedule exists, or for a product over its bound, it runs
// the mark/acc accumulation. Both paths are bitwise identical to
// Multiply.
//
//amg:hotpath
func (pl *ProductPlan) numeric(rt *par.Runtime, a, b, c *Matrix) {
	if pl.entryPtr != nil {
		if rt.Serial(pl.aRows) {
			pl.scheduleRange(a, b, c, 0, pl.aRows)
			return
		}
		rt.For(pl.aRows, func(lo, hi int) {
			pl.scheduleRange(a, b, c, lo, hi)
		})
		return
	}
	if rt.Serial(pl.aRows) {
		ar := par.AcquireArena()
		mark := par.Get[int32](ar, pl.bCols)
		acc := par.Get[float64](ar, pl.bCols)
		for i := range mark {
			mark[i] = -1
		}
		productNumericRange(a, b, c, mark, acc, 0, pl.aRows)
		par.Put(ar, mark)
		par.Put(ar, acc)
		par.ReleaseArena(ar)
		return
	}
	par.ForWith(rt, pl.aRows,
		func(ar *par.Arena) spgemmScratch {
			s := spgemmScratch{
				mark: par.Get[int32](ar, pl.bCols),
				acc:  par.Get[float64](ar, pl.bCols),
			}
			for i := range s.mark {
				s.mark[i] = -1
			}
			return s
		},
		func(lo, hi int, s spgemmScratch) {
			productNumericRange(a, b, c, s.mark, s.acc, lo, hi)
		},
		func(ar *par.Arena, s spgemmScratch) {
			par.Put(ar, s.mark)
			par.Put(ar, s.acc)
		})
}

// scheduleRange replays rows [lo, hi) through the gather schedule: each
// output entry sums its cached contribution pairs in stored order. The
// first pair initializes the accumulator (not 0 + x, preserving the
// fused kernel's first-touch semantics bit for bit, signed zeros
// included); every entry has at least one pair by construction.
//
//amg:hotpath
func (pl *ProductPlan) scheduleRange(a, b, c *Matrix, lo, hi int) {
	ep := pl.entryPtr
	ai, bi := pl.aIdx, pl.bIdx
	av, bv := a.Val, b.Val
	for k := pl.ptr[lo]; k < pl.ptr[hi]; k++ {
		s, e := ep[k], ep[k+1]
		acc := av[ai[s]] * bv[bi[s]]
		for t := s + 1; t < e; t++ {
			acc += av[ai[t]] * bv[bi[t]]
		}
		c.Val[k] = acc
	}
}

// productNumericRange replays rows [lo, hi): the same first-touch
// accumulation as Multiply's numeric pass, then a gather through the
// pre-sorted cached pattern (which visits entries in exactly the order
// Multiply writes them after sortRow — hence bitwise-identical values).
//
//amg:hotpath
func productNumericRange(a, b, c *Matrix, mark []int32, acc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			ak := a.Val[p]
			row := a.Col[p]
			for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
				j := b.Col[q]
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					acc[j] = ak * b.Val[q]
				} else {
					acc[j] += ak * b.Val[q]
				}
			}
		}
		for idx := c.RowPtr[i]; idx < c.RowPtr[i+1]; idx++ {
			c.Val[idx] = acc[c.Col[idx]]
		}
	}
}

// TransposePlan is the cached symbolic phase of Transpose: the transposed
// pattern plus the entry permutation, so a replay is a values-only
// permuted copy.
type TransposePlan struct {
	rows, cols int
	fp         uint64
	ptr        []int
	col        []int32
	// perm[p] is the output position of input entry p.
	perm []int
}

// PlanTranspose computes the pattern of A^T and the entry permutation.
func PlanTranspose(rt *par.Runtime, a *Matrix) *TransposePlan {
	pl := &TransposePlan{rows: a.Rows, cols: a.Cols, fp: fingerprint(a)}
	pl.perm = make([]int, len(a.Col))
	pl.ptr, pl.col, _ = a.transposeBlocked(rt, a.Cols, false, pl.perm)
	return pl
}

// NewMatrix returns a transpose-shaped matrix with the plan's pattern and
// zeroed values, ready for Numeric. RowPtr/Col are shared with the plan.
func (pl *TransposePlan) NewMatrix() *Matrix {
	return &Matrix{Rows: pl.cols, Cols: pl.rows, RowPtr: pl.ptr, Col: pl.col, Val: make([]float64, len(pl.col))}
}

// Numeric replays the transpose for new values: t.Val[perm[p]] = a.Val[p].
// Bitwise identical to Transpose (an exact value copy) and allocation-free.
func (pl *TransposePlan) Numeric(rt *par.Runtime, a, t *Matrix) error {
	if err := pl.checkShapes(a, t); err != nil {
		return err
	}
	if fingerprint(a) != pl.fp {
		return fmt.Errorf("sparse: transpose replay: pattern of A changed since PlanTranspose")
	}
	pl.replay(rt, a, t)
	return nil
}

// Replay is Numeric without the fingerprint verification (see
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

// SmoothPlan is the cached symbolic phase of SmoothProlongator: the union
// pattern of the product D^{-1}A*P0 and P0 itself, row-sorted.
type SmoothPlan struct {
	aRows, aCols, p0Cols int
	aFP, p0FP            uint64
	ptr                  []int
	col                  []int32
}

// PlanSmoothProlongator computes the pattern of (I - omega*D^{-1}*A)*P0,
// which depends only on the patterns of A and P0 (dinv and omega scale
// values, never the pattern).
func PlanSmoothProlongator(rt *par.Runtime, a, p0 *Matrix) (*SmoothPlan, error) {
	if a.Cols != p0.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, p0.Rows, p0.Cols)
	}
	pl := &SmoothPlan{
		aRows: a.Rows, aCols: a.Cols, p0Cols: p0.Cols,
		aFP: fingerprint(a), p0FP: fingerprint(p0),
	}
	// The union of the product row and the P0 row, sorted, is exactly
	// the one-shot kernel's merge of the two sorted rows.
	pl.ptr, pl.col = collectPattern(rt, a, p0.Cols, func(i int, mark, buf []int32) []int32 {
		buf = appendProductCols(a, p0, i, mark, buf)
		for q := p0.RowPtr[i]; q < p0.RowPtr[i+1]; q++ {
			if j := p0.Col[q]; mark[j] != int32(i) {
				mark[j] = int32(i)
				buf = append(buf, j)
			}
		}
		return buf
	})
	return pl, nil
}

// NewMatrix returns a smoothed-prolongator-shaped matrix with the plan's
// pattern and zeroed values. RowPtr/Col are shared with the plan.
func (pl *SmoothPlan) NewMatrix() *Matrix {
	return &Matrix{Rows: pl.aRows, Cols: pl.p0Cols, RowPtr: pl.ptr, Col: pl.col, Val: make([]float64, len(pl.col))}
}

// Numeric replays the plan for new values of A (and a new dinv/omega):
// out.Val is overwritten with (I - omega*D^{-1}*A)*P0. Bitwise identical
// to SmoothProlongator and allocation-free in steady state.
func (pl *SmoothPlan) Numeric(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64, out *Matrix) error {
	if err := pl.checkShapes(a, p0, dinv, out); err != nil {
		return err
	}
	if fingerprint(a) != pl.aFP {
		return fmt.Errorf("sparse: smooth replay: pattern of A changed since PlanSmoothProlongator")
	}
	if fingerprint(p0) != pl.p0FP {
		return fmt.Errorf("sparse: smooth replay: pattern of P0 changed since PlanSmoothProlongator")
	}
	pl.replay(rt, a, p0, dinv, omega, out)
	return nil
}

// Replay is Numeric without the fingerprint verification (see
// ProductPlan.Replay for the contract).
//
//amg:hotpath
func (pl *SmoothPlan) Replay(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64, out *Matrix) error {
	if err := pl.checkShapes(a, p0, dinv, out); err != nil {
		return err
	}
	pl.replay(rt, a, p0, dinv, omega, out)
	return nil
}

func (pl *SmoothPlan) checkShapes(a, p0 *Matrix, dinv []float64, out *Matrix) error {
	if a.Rows != pl.aRows || a.Cols != pl.aCols || p0.Rows != pl.aCols || p0.Cols != pl.p0Cols {
		return fmt.Errorf("sparse: smooth replay dimension mismatch %dx%d * %dx%d (planned %dx%d * %dx%d)",
			a.Rows, a.Cols, p0.Rows, p0.Cols, pl.aRows, pl.aCols, pl.aCols, pl.p0Cols)
	}
	if len(dinv) != a.Rows {
		return fmt.Errorf("sparse: dinv length %d, want %d", len(dinv), a.Rows)
	}
	if out.Rows != pl.aRows || out.Cols != pl.p0Cols || len(out.Col) != len(pl.col) || len(out.Val) != len(pl.col) {
		return fmt.Errorf("sparse: smooth replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

//amg:hotpath
func (pl *SmoothPlan) replay(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64, out *Matrix) {
	if rt.Serial(pl.aRows) {
		ar := par.AcquireArena()
		mark := par.Get[int32](ar, pl.p0Cols)
		acc := par.Get[float64](ar, pl.p0Cols)
		for i := range mark {
			mark[i] = -1
		}
		smoothNumericRange(a, p0, dinv, omega, out, mark, acc, 0, pl.aRows)
		par.Put(ar, mark)
		par.Put(ar, acc)
		par.ReleaseArena(ar)
		return
	}
	par.ForWith(rt, pl.aRows,
		func(ar *par.Arena) spgemmScratch {
			s := spgemmScratch{
				mark: par.Get[int32](ar, pl.p0Cols),
				acc:  par.Get[float64](ar, pl.p0Cols),
			}
			for i := range s.mark {
				s.mark[i] = -1
			}
			return s
		},
		func(lo, hi int, s spgemmScratch) {
			smoothNumericRange(a, p0, dinv, omega, out, s.mark, s.acc, lo, hi)
		},
		func(ar *par.Arena, s spgemmScratch) {
			par.Put(ar, s.mark)
			par.Put(ar, s.acc)
		})
}

// smoothNumericRange replays rows [lo, hi): the product row of D^{-1}A*P0
// accumulates exactly as in the one-shot kernel, then the cached union
// pattern is walked against the P0 row — marked entries came from the
// product, matching P0 columns contribute the identity term — writing
// the same expressions in the same order as the one-shot merge.
//
//amg:hotpath
func smoothNumericRange(a, p0 *Matrix, dinv []float64, omega float64, out *Matrix, mark []int32, acc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		di := dinv[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			ak := di * a.Val[p]
			row := a.Col[p]
			for q := p0.RowPtr[row]; q < p0.RowPtr[row+1]; q++ {
				j := p0.Col[q]
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					acc[j] = ak * p0.Val[q]
				} else {
					acc[j] += ak * p0.Val[q]
				}
			}
		}
		pq := p0.RowPtr[i]
		eq := p0.RowPtr[i+1]
		for idx := out.RowPtr[i]; idx < out.RowPtr[i+1]; idx++ {
			j := out.Col[idx]
			inP0 := pq < eq && p0.Col[pq] == j
			switch {
			case inP0 && mark[j] == int32(i):
				out.Val[idx] = p0.Val[pq] + -omega*acc[j]
				pq++
			case mark[j] == int32(i):
				out.Val[idx] = -omega * acc[j]
			default: // P0-only entry
				out.Val[idx] = p0.Val[pq]
				pq++
			}
		}
	}
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
// zeroed values, ready for Numeric.
func (pl *RAPPlan) NewMatrix() *Matrix { return pl.rapPlan.NewMatrix() }

// Numeric replays the triple product for new values: out.Val is
// overwritten with R*A*P, staging A*P in the plan-owned intermediate.
// Bitwise identical to RAP. Both products build their gather schedules
// on the second pass (see ProductPlan.Numeric); later passes allocate
// nothing.
func (pl *RAPPlan) Numeric(rt *par.Runtime, r, a, p, out *Matrix) error {
	if err := pl.apPlan.Numeric(rt, a, p, pl.ap); err != nil {
		return err
	}
	return pl.rapPlan.Numeric(rt, r, pl.ap, out)
}

// Replay is Numeric without the fingerprint verification (see
// ProductPlan.Replay for the contract). The intermediate A*P is
// plan-owned, so only the caller-supplied operands' shapes are checked.
func (pl *RAPPlan) Replay(rt *par.Runtime, r, a, p, out *Matrix) error {
	if err := pl.apPlan.Replay(rt, a, p, pl.ap); err != nil {
		return err
	}
	return pl.rapPlan.Replay(rt, r, pl.ap, out)
}
