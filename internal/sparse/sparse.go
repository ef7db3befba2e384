// Package sparse implements the CSR sparse matrix substrate: parallel
// sparse matrix-vector products, sparse matrix-matrix products (SpGEMM,
// Gustavson's algorithm), transposition, and the Galerkin triple product
// R*A*P needed by smoothed-aggregation algebraic multigrid.
//
//amg:deterministic
package sparse

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mis2go/internal/graph"
	"mis2go/internal/par"
)

// Matrix is a sparse matrix in CSR format. Column indices within a row are
// sorted ascending for matrices that pass Validate.
//
// Concurrency: every kernel (SpMV and its fused variants, SpMM,
// JacobiSweep, Diagonal, Graph, Transpose, Multiply/RAP) only reads the
// matrix and writes caller-provided outputs, so any number of
// goroutines may use one Matrix concurrently as long as none mutates
// it — Scale, direct writes to Val, and plan Numeric/Replay calls
// targeting the matrix must be serialized against all readers.
type Matrix struct {
	Rows, Cols int
	RowPtr     []int   // length Rows+1
	Col        []int32 // length NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *Matrix) NNZ() int { return len(a.Col) }

// Validate checks structural invariants.
func (a *Matrix) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return errors.New("sparse: negative dimension")
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Col) || len(a.Col) != len(a.Val) {
		return errors.New("sparse: inconsistent RowPtr/Col/Val lengths")
	}
	// Validate the whole row-pointer array before scanning any entries:
	// with a non-monotone RowPtr an earlier row's range can overrun
	// len(Col) even though the final pointer checks out (e.g.
	// RowPtr = [0, 3, 2] over 2 entries), so scanning as we check would
	// panic on exactly the malformed input Validate exists to reject.
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.Col[p] < 0 || int(a.Col[p]) >= a.Cols {
				return fmt.Errorf("sparse: row %d has out-of-range column %d", i, a.Col[p])
			}
			if p > a.RowPtr[i] && a.Col[p-1] >= a.Col[p] {
				return fmt.Errorf("sparse: row %d not sorted/duplicate-free", i)
			}
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if math.IsNaN(a.Val[p]) || math.IsInf(a.Val[p], 0) {
				return fmt.Errorf("sparse: non-finite value at row %d", i)
			}
		}
	}
	return nil
}

// Diagonal returns the diagonal entries of A (zero where absent).
func (a *Matrix) Diagonal() []float64 {
	d := make([]float64, a.Rows)
	a.DiagonalInto(par.Default(), d)
	return d
}

// Graph returns the adjacency structure of A with the diagonal removed,
// symmetrized. This is the graph coarsening and coloring operate on.
func (a *Matrix) Graph() *graph.CSR { return a.GraphWith(par.Default()) }

// GraphWith is Graph with an explicit runtime. For the common case of
// sorted duplicate-free rows (the Validate invariant) the symmetrized
// CSR is built directly with a count + scan + merge over rows of A and
// its structural transpose — no intermediate edge list. Deterministic:
// each output row is a merge of two sorted lists, independent of
// blocking. Matrices with unsorted or duplicate row entries fall back
// to the tolerant edge-list construction.
func (a *Matrix) GraphWith(rt *par.Runtime) *graph.CSR {
	n := a.Rows
	if a.Cols > n {
		n = a.Cols
	}
	if !a.rowsSorted(rt) {
		return a.graphFromEdges(n)
	}
	tPtr, tCol, _ := a.transposeBlocked(rt, n, false, nil)

	g := &graph.CSR{N: n}
	g.RowPtr = make([]int, n+1)
	ar := par.AcquireArena()
	counts := par.Get[int](ar, n)
	// rowOf returns the sorted column list of row i of A (empty past Rows).
	rowOf := func(i int) []int32 {
		if i >= a.Rows {
			return nil
		}
		return a.Col[a.RowPtr[i]:a.RowPtr[i+1]]
	}
	rt.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i] = mergeRow(rowOf(i), tCol[tPtr[i]:tPtr[i+1]], int32(i), nil)
		}
	})
	nnz := par.ScanExclusive(rt, counts, g.RowPtr)
	g.RowPtr[n] = nnz
	g.Col = make([]int32, nnz)
	rt.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mergeRow(rowOf(i), tCol[tPtr[i]:tPtr[i+1]], int32(i), g.Col[g.RowPtr[i]:g.RowPtr[i+1]])
		}
	})
	par.Put(ar, counts)
	par.ReleaseArena(ar)
	return g
}

// rowsSorted reports whether every row's column indices are strictly
// ascending (the Validate invariant the merge-based Graph build needs).
func (a *Matrix) rowsSorted(rt *par.Runtime) bool {
	bad := par.ReduceSum(rt, a.Rows, func(i int) int64 {
		for p := a.RowPtr[i] + 1; p < a.RowPtr[i+1]; p++ {
			if a.Col[p-1] >= a.Col[p] {
				return 1
			}
		}
		return 0
	})
	return bad == 0
}

// graphFromEdges is the seed's tolerant Graph construction: materialize
// both triangles as an edge list and let FromEdges sort and dedupe.
func (a *Matrix) graphFromEdges(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, len(a.Col))
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.Col[p]
			if int(j) > i {
				edges = append(edges, graph.Edge{U: int32(i), V: j})
			} else if int(j) < i {
				edges = append(edges, graph.Edge{U: j, V: int32(i)})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// mergeRow merges two sorted duplicate-free column lists, dropping the
// diagonal entry diag, and either counts the union (dst == nil) or
// writes it into dst. Returns the union size.
//
//amg:hotpath
func mergeRow(x, y []int32, diag int32, dst []int32) int {
	k, px, py := 0, 0, 0
	for px < len(x) || py < len(y) {
		var c int32
		switch {
		case py >= len(y) || (px < len(x) && x[px] < y[py]):
			c = x[px]
			px++
		case px >= len(x) || y[py] < x[px]:
			c = y[py]
			py++
		default:
			c = x[px]
			px++
			py++
		}
		if c == diag {
			continue
		}
		if dst != nil {
			dst[k] = c
		}
		k++
	}
	return k
}

// Transpose returns A^T using a blocked counting sort over columns
// (deterministic for any worker count; entries within a transposed row
// stay in ascending original-row order).
func (a *Matrix) Transpose() *Matrix { return a.TransposeWith(par.Default()) }

// TransposeWith is Transpose with an explicit runtime.
func (a *Matrix) TransposeWith(rt *par.Runtime) *Matrix {
	t := &Matrix{Rows: a.Cols, Cols: a.Rows}
	t.RowPtr, t.Col, t.Val = a.transposeBlocked(rt, a.Cols, true, nil)
	return t
}

// transposeBlocked computes the transpose of A with ncols output rows
// with per-block column counts, a serial scan, and a deterministic
// parallel scatter (block b's entries for column j land after all blocks
// b' < b, preserving the serial counting-sort order). val is nil when
// withVals is false. The results are ordinary slices, not arena
// buffers: a caller would Put those into whichever pooled arena it holds
// next, and the pooled arenas would pile up nnz-sized buffers until a
// collection empties the pool (DESIGN.md, "Scratch arenas").
// When perm is non-nil (length NNZ) the scatter also records the
// destination of every input entry — perm[p] is the output position of
// entry p — which is the values-only replay schedule TransposePlan caches.
func (a *Matrix) transposeBlocked(rt *par.Runtime, ncols int, withVals bool, perm []int) (ptr []int, col []int32, val []float64) {
	ptr = make([]int, ncols+1)
	col = make([]int32, len(a.Col))
	if withVals {
		val = make([]float64, len(a.Val))
	}
	blocks := rt.Blocks(a.Rows)
	nb := len(blocks) - 1
	// Bound the O(nb*ncols) counting scratch (and the serial offset scan
	// over it) to a small multiple of nnz: wide matrices with many
	// workers would otherwise pay more for the per-block counters than
	// for the transpose itself. The output is blocking-independent, so
	// coarsening the blocks deterministically (a function of the matrix
	// shape and worker count only) never changes results.
	if maxNB := 1 + 4*len(a.Col)/(ncols+1); nb > maxNB {
		nb = maxNB
		chunk := (a.Rows + nb - 1) / nb
		blocks = blocks[:0]
		for lo := 0; lo < a.Rows; lo += chunk {
			blocks = append(blocks, lo)
		}
		blocks = append(blocks, a.Rows)
		nb = len(blocks) - 1
	}
	// starts[b*ncols + j] counts block b's entries in column j, then
	// becomes block b's write cursor for column j.
	ar := par.AcquireArena()
	starts := par.Get[int](ar, nb*ncols)
	clear(starts)
	rt.ForBlocks(nb, func(b int) {
		cnt := starts[b*ncols : (b+1)*ncols]
		for p := a.RowPtr[blocks[b]]; p < a.RowPtr[blocks[b+1]]; p++ {
			cnt[a.Col[p]]++
		}
	})
	run := 0
	for j := 0; j < ncols; j++ {
		ptr[j] = run
		for b := 0; b < nb; b++ {
			c := starts[b*ncols+j]
			starts[b*ncols+j] = run
			run += c
		}
	}
	ptr[ncols] = run
	rt.ForBlocks(nb, func(b int) {
		fill := starts[b*ncols : (b+1)*ncols]
		for i := blocks[b]; i < blocks[b+1]; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := a.Col[p]
				col[fill[j]] = int32(i)
				if withVals {
					val[fill[j]] = a.Val[p]
				}
				if perm != nil {
					perm[p] = fill[j]
				}
				fill[j]++
			}
		}
	})
	par.Put(ar, starts)
	par.ReleaseArena(ar)
	return ptr, col, val
}

// insertionSortThreshold is the output-row length at or below which the
// numeric pass sorts column indices with a branchy insertion sort; above
// it, slices.Sort (pdqsort, closure-free). Mesh and Galerkin rows are
// almost always short, so insertion sort dominates in practice.
const insertionSortThreshold = 32

// sortRow sorts a short column slice in place.
//
//amg:hotpath
func sortRow(cols []int32) {
	if len(cols) <= insertionSortThreshold {
		for i := 1; i < len(cols); i++ {
			v := cols[i]
			j := i - 1
			for ; j >= 0 && cols[j] > v; j-- {
				cols[j+1] = cols[j]
			}
			cols[j+1] = v
		}
		return
	}
	slices.Sort(cols)
}

// spgemmScratch is the per-participant accumulator pair of Gustavson's
// algorithm: mark stamps the rows already holding column j, acc holds
// the running dot products. Stamps are global row ids, so reusing the
// buffers across rows, blocks, and whole Multiply calls (via the arena)
// needs only one clear per participant per pass.
type spgemmScratch struct {
	mark []int32
	acc  []float64
}

// Multiply computes C = A*B with Gustavson's row-by-row SpGEMM,
// parallelized over rows of A with per-worker dense accumulators drawn
// from the participants' scratch arenas (reused across calls, e.g. the
// two products of RAP). Deterministic: each output row is computed
// independently and sorted.
func Multiply(rt *par.Runtime, a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := &Matrix{Rows: a.Rows, Cols: b.Cols}
	c.RowPtr = make([]int, a.Rows+1)
	car := par.AcquireArena()
	counts := par.Get[int](car, a.Rows)

	// Symbolic pass: count nnz per output row.
	countProductRows(rt, a, b, counts)
	nnz := par.ScanExclusive(rt, counts, c.RowPtr)
	par.Put(car, counts)
	par.ReleaseArena(car)
	c.Col = make([]int32, nnz)
	c.Val = make([]float64, nnz)

	// Numeric pass.
	par.ForWith(rt, a.Rows,
		func(ar *par.Arena) spgemmScratch {
			s := spgemmScratch{
				mark: par.Get[int32](ar, b.Cols),
				acc:  par.Get[float64](ar, b.Cols),
			}
			for i := range s.mark {
				s.mark[i] = -1
			}
			return s
		},
		func(lo, hi int, s spgemmScratch) {
			mark, acc := s.mark, s.acc
			for i := lo; i < hi; i++ {
				base := c.RowPtr[i]
				k := base
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					ak := a.Val[p]
					row := a.Col[p]
					for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
						j := b.Col[q]
						if mark[j] != int32(i) {
							mark[j] = int32(i)
							acc[j] = ak * b.Val[q]
							c.Col[k] = j
							k++
						} else {
							acc[j] += ak * b.Val[q]
						}
					}
				}
				cols := c.Col[base:k]
				sortRow(cols)
				for idx := base; idx < k; idx++ {
					c.Val[idx] = acc[c.Col[idx]]
				}
			}
		},
		func(ar *par.Arena, s spgemmScratch) {
			par.Put(ar, s.mark)
			par.Put(ar, s.acc)
		})
	return c, nil
}

// countProductRows fills counts[i] with the nnz of row i of A*B — the
// mark phase of Gustavson's algorithm, sizing Multiply's output.
func countProductRows(rt *par.Runtime, a, b *Matrix, counts []int) {
	par.ForWith(rt, a.Rows,
		func(ar *par.Arena) []int32 {
			mark := par.Get[int32](ar, b.Cols)
			for i := range mark {
				mark[i] = -1
			}
			return mark
		},
		func(lo, hi int, mark []int32) {
			for i := lo; i < hi; i++ {
				cnt := 0
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					k := a.Col[p]
					for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
						j := b.Col[q]
						if mark[j] != int32(i) {
							mark[j] = int32(i)
							cnt++
						}
					}
				}
				counts[i] = cnt
			}
		},
		func(ar *par.Arena, mark []int32) { par.Put(ar, mark) })
}

// RAP computes the Galerkin coarse operator R*A*P.
func RAP(rt *par.Runtime, r, a, p *Matrix) (*Matrix, error) {
	ap, err := Multiply(rt, a, p)
	if err != nil {
		return nil, err
	}
	return Multiply(rt, r, ap)
}

// smoothScratch is the per-participant state of SmoothProlongator: the
// Gustavson mark/acc pair for the product D^{-1}A*P0 plus a column
// collector for the product pattern of the current row.
type smoothScratch struct {
	mark []int32
	acc  []float64
	cols []int32
}

// SmoothProlongator computes P = (I - omega*D^{-1}*A) * P0 in a single
// blocked Gustavson pass per row: the product row of D^{-1}A*P0 is
// accumulated with arena-backed mark/acc scratch, then merged with the
// (sorted) row of P0 on write-out. This fuses the row scaling by dinv,
// the SpGEMM, and the sparse Add of the seed's three-step setup into one
// traversal with no intermediate matrices. The per-row accumulation and
// merge order match the three-step composition exactly, so results are
// bitwise identical to it — and independent of the worker count.
func SmoothProlongator(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64) (*Matrix, error) {
	if a.Cols != p0.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, p0.Rows, p0.Cols)
	}
	if len(dinv) != a.Rows {
		return nil, fmt.Errorf("sparse: dinv length %d, want %d", len(dinv), a.Rows)
	}
	c := &Matrix{Rows: a.Rows, Cols: p0.Cols}
	c.RowPtr = make([]int, a.Rows+1)
	car := par.AcquireArena()
	counts := par.Get[int](car, a.Rows)

	// Symbolic pass: per row, count the union of the product pattern and
	// the P0 row pattern.
	countSmoothedRows(rt, a, p0, counts)
	nnz := par.ScanExclusive(rt, counts, c.RowPtr)
	par.Put(car, counts)
	par.ReleaseArena(car)
	c.Col = make([]int32, nnz)
	c.Val = make([]float64, nnz)

	// Numeric pass: accumulate the product row, sort its pattern, then
	// two-pointer merge with the P0 row writing p0 - omega*product.
	par.ForWith(rt, a.Rows,
		func(ar *par.Arena) smoothScratch {
			s := smoothScratch{
				mark: par.Get[int32](ar, p0.Cols),
				acc:  par.Get[float64](ar, p0.Cols),
				cols: par.Get[int32](ar, p0.Cols),
			}
			for i := range s.mark {
				s.mark[i] = -1
			}
			return s
		},
		func(lo, hi int, s smoothScratch) {
			mark, acc := s.mark, s.acc
			for i := lo; i < hi; i++ {
				di := dinv[i]
				nc := 0
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					ak := di * a.Val[p]
					row := a.Col[p]
					for q := p0.RowPtr[row]; q < p0.RowPtr[row+1]; q++ {
						j := p0.Col[q]
						if mark[j] != int32(i) {
							mark[j] = int32(i)
							acc[j] = ak * p0.Val[q]
							s.cols[nc] = j
							nc++
						} else {
							acc[j] += ak * p0.Val[q]
						}
					}
				}
				prod := s.cols[:nc]
				sortRow(prod)
				// Merge the sorted product pattern with the sorted P0 row.
				base := c.RowPtr[i]
				k := base
				pp, pq := 0, p0.RowPtr[i]
				ep := nc
				eq := p0.RowPtr[i+1]
				for pp < ep || pq < eq {
					switch {
					case pq >= eq || (pp < ep && prod[pp] < p0.Col[pq]):
						j := prod[pp]
						c.Col[k] = j
						c.Val[k] = -omega * acc[j]
						pp++
					case pp >= ep || p0.Col[pq] < prod[pp]:
						c.Col[k] = p0.Col[pq]
						c.Val[k] = p0.Val[pq]
						pq++
					default:
						j := prod[pp]
						c.Col[k] = j
						c.Val[k] = p0.Val[pq] + -omega*acc[j]
						pp++
						pq++
					}
					k++
				}
			}
		},
		func(ar *par.Arena, s smoothScratch) {
			par.Put(ar, s.mark)
			par.Put(ar, s.acc)
			par.Put(ar, s.cols)
		})
	return c, nil
}

// countSmoothedRows fills counts[i] with the nnz of row i of
// (I - omega*D^{-1}*A)*P0 — the union of the product pattern and the P0
// row pattern — sizing SmoothProlongator's output.
func countSmoothedRows(rt *par.Runtime, a, p0 *Matrix, counts []int) {
	par.ForWith(rt, a.Rows,
		func(ar *par.Arena) []int32 {
			mark := par.Get[int32](ar, p0.Cols)
			for i := range mark {
				mark[i] = -1
			}
			return mark
		},
		func(lo, hi int, mark []int32) {
			for i := lo; i < hi; i++ {
				cnt := 0
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					k := a.Col[p]
					for q := p0.RowPtr[k]; q < p0.RowPtr[k+1]; q++ {
						j := p0.Col[q]
						if mark[j] != int32(i) {
							mark[j] = int32(i)
							cnt++
						}
					}
				}
				for q := p0.RowPtr[i]; q < p0.RowPtr[i+1]; q++ {
					if mark[p0.Col[q]] != int32(i) {
						cnt++
					}
				}
				counts[i] = cnt
			}
		},
		func(ar *par.Arena, mark []int32) { par.Put(ar, mark) })
}

// Scale multiplies all values by s in place.
func (a *Matrix) Scale(s float64) {
	for i := range a.Val {
		a.Val[i] *= s
	}
}

// Clone returns a deep copy of A.
func (a *Matrix) Clone() *Matrix {
	b := &Matrix{Rows: a.Rows, Cols: a.Cols}
	b.RowPtr = append([]int(nil), a.RowPtr...)
	b.Col = append([]int32(nil), a.Col...)
	b.Val = append([]float64(nil), a.Val...)
	return b
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := &Matrix{Rows: n, Cols: n}
	m.RowPtr = make([]int, n+1)
	m.Col = make([]int32, n)
	m.Val = make([]float64, n)
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.Col[i] = int32(i)
		m.Val[i] = 1
	}
	return m
}

// Add computes A + s*B for matrices with identical dimensions. Every
// output row is sorted and duplicate-free, so the result round-trips
// Validate whenever the input values are finite: rows that are already
// strictly sorted (the Validate invariant) take a linear two-pointer
// merge; rows violating it — unsorted or with repeated columns — are
// gathered, stably sorted, and duplicate-combined instead of silently
// producing an out-of-order result as the seed implementation did.
func Add(a, b *Matrix, s float64) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("sparse: add dimension mismatch")
	}
	c := &Matrix{Rows: a.Rows, Cols: a.Cols}
	c.RowPtr = make([]int, a.Rows+1)
	colBuf := make([]int32, 0, len(a.Col)+len(b.Col))
	valBuf := make([]float64, 0, len(a.Col)+len(b.Col))
	var scratch []addEntry
	for i := 0; i < a.Rows; i++ {
		pa, pb := a.RowPtr[i], b.RowPtr[i]
		ea, eb := a.RowPtr[i+1], b.RowPtr[i+1]
		if !rowStrictlySorted(a.Col[pa:ea]) || !rowStrictlySorted(b.Col[pb:eb]) {
			scratch = scratch[:0]
			for p := pa; p < ea; p++ {
				scratch = append(scratch, addEntry{a.Col[p], a.Val[p]})
			}
			for p := pb; p < eb; p++ {
				scratch = append(scratch, addEntry{b.Col[p], s * b.Val[p]})
			}
			colBuf, valBuf = mergeUnsortedRow(scratch, colBuf, valBuf)
			c.RowPtr[i+1] = len(colBuf)
			continue
		}
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && a.Col[pa] < b.Col[pb]):
				colBuf = append(colBuf, a.Col[pa])
				valBuf = append(valBuf, a.Val[pa])
				pa++
			case pa >= ea || b.Col[pb] < a.Col[pa]:
				colBuf = append(colBuf, b.Col[pb])
				valBuf = append(valBuf, s*b.Val[pb])
				pb++
			default:
				colBuf = append(colBuf, a.Col[pa])
				valBuf = append(valBuf, a.Val[pa]+s*b.Val[pb])
				pa++
				pb++
			}
		}
		c.RowPtr[i+1] = len(colBuf)
	}
	c.Col = colBuf
	c.Val = valBuf
	return c, nil
}

// addEntry is one (column, value) contribution of Add's slow path.
type addEntry struct {
	col int32
	val float64
}

// rowStrictlySorted reports whether cols is strictly ascending (sorted
// and duplicate-free), the Validate row invariant.
func rowStrictlySorted(cols []int32) bool {
	for p := 1; p < len(cols); p++ {
		if cols[p-1] >= cols[p] {
			return false
		}
	}
	return true
}

// mergeUnsortedRow stably insertion-sorts the row's contributions by
// column (A entries keep preceding B entries on ties, matching the fast
// path's A-then-B summation order) and appends the duplicate-combined
// result to colBuf/valBuf.
func mergeUnsortedRow(entries []addEntry, colBuf []int32, valBuf []float64) ([]int32, []float64) {
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for ; j >= 0 && entries[j].col > e.col; j-- {
			entries[j+1] = entries[j]
		}
		entries[j+1] = e
	}
	for k := 0; k < len(entries); {
		col, val := entries[k].col, entries[k].val
		for k++; k < len(entries) && entries[k].col == col; k++ {
			val += entries[k].val
		}
		colBuf = append(colBuf, col)
		valBuf = append(valBuf, val)
	}
	return colBuf, valBuf
}

// Dense is a small dense matrix used for coarse-grid solves.
//
// Concurrency: Solve only reads the factorization (and writes the
// caller's x), so concurrent Solve calls with distinct vectors are
// safe. Factorize and FillFrom mutate Data and the reused pivot array
// in place and must be serialized against every other method — a
// re-factorization racing a Solve silently corrupts both.
type Dense struct {
	N    int
	Data []float64 // row-major
	piv  []int
}

// MaxDenseN bounds the order of dense coarse-grid systems. A dense
// factorization stores N^2 float64s and runs O(N^3) flops, so a
// misconfigured coarse size (e.g. an AMG MinCoarseSize in the hundreds
// of thousands) would silently try to allocate gigabytes; above this
// bound (128 MiB of storage) ToDense, NewDense, and Factorize return a
// descriptive error instead.
const MaxDenseN = 4096

// checkDenseOrder rejects orders outside the sane coarse-grid range.
func checkDenseOrder(n int) error {
	if n < 0 {
		return errors.New("sparse: negative dense order")
	}
	if n > MaxDenseN {
		return fmt.Errorf("sparse: dense system of order %d exceeds the coarse-grid bound MaxDenseN=%d "+
			"(%.1f GiB of storage); lower the coarse size (e.g. amg Options.MinCoarseSize) or keep coarsening",
			n, MaxDenseN, float64(n)*float64(n)*8/(1<<30))
	}
	return nil
}

// NewDense allocates a zeroed n x n dense matrix, rejecting orders above
// MaxDenseN. Symbolic setup phases use it to preallocate the coarse
// factorization storage once; FillFrom refills it per numeric pass.
func NewDense(n int) (*Dense, error) {
	if err := checkDenseOrder(n); err != nil {
		return nil, err
	}
	return &Dense{N: n, Data: make([]float64, n*n)}, nil
}

// FillFrom overwrites d with the entries of the square sparse matrix a
// (zero where absent). Allocation-free: the repeated-setup path clears
// and rescatters in place.
func (d *Dense) FillFrom(a *Matrix) error {
	if a.Rows != a.Cols {
		return errors.New("sparse: FillFrom requires square matrix")
	}
	if a.Rows != d.N {
		return fmt.Errorf("sparse: FillFrom order %d into dense of order %d", a.Rows, d.N)
	}
	clear(d.Data)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d.Data[i*a.Rows+int(a.Col[p])] = a.Val[p]
		}
	}
	return nil
}

// ToDense converts a square sparse matrix to dense form. Matrices larger
// than MaxDenseN are rejected (see NewDense).
func (a *Matrix) ToDense() (*Dense, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("sparse: ToDense requires square matrix")
	}
	d, err := NewDense(a.Rows)
	if err != nil {
		return nil, err
	}
	if err := d.FillFrom(a); err != nil {
		return nil, err
	}
	return d, nil
}

// Factorize computes an LU factorization with partial pivoting in place.
// The pivot array is reused across repeated factorizations of the same
// Dense, so refresh loops allocate nothing.
func (d *Dense) Factorize() error {
	n := d.N
	if err := checkDenseOrder(n); err != nil {
		return err
	}
	if cap(d.piv) >= n {
		d.piv = d.piv[:n]
	} else {
		d.piv = make([]int, n)
	}
	for k := 0; k < n; k++ {
		// Pivot selection.
		pk, pmax := k, math.Abs(d.Data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(d.Data[i*n+k]); v > pmax {
				pk, pmax = i, v
			}
		}
		if pmax == 0 {
			return fmt.Errorf("sparse: singular dense matrix at pivot %d", k)
		}
		d.piv[k] = pk
		if pk != k {
			for j := 0; j < n; j++ {
				d.Data[k*n+j], d.Data[pk*n+j] = d.Data[pk*n+j], d.Data[k*n+j]
			}
		}
		inv := 1 / d.Data[k*n+k]
		for i := k + 1; i < n; i++ {
			l := d.Data[i*n+k] * inv
			d.Data[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				d.Data[i*n+j] -= l * d.Data[k*n+j]
			}
		}
	}
	return nil
}

// Solve solves the factorized system in place: x := A^{-1} b.
// Factorize must have been called.
func (d *Dense) Solve(b, x []float64) {
	n := d.N
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := d.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
		for i := k + 1; i < n; i++ {
			x[i] -= d.Data[i*n+k] * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= d.Data[i*n+j] * x[j]
		}
		x[i] = s / d.Data[i*n+i]
	}
}
