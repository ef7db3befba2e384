// Package sparse implements the CSR sparse matrix substrate: parallel
// sparse matrix-vector products (one vector per call), transposition,
// and the planned sparse matrix-matrix products (SpGEMM, Gustavson's
// algorithm) that form the smoothed prolongator and the Galerkin triple
// product R*A*P of smoothed-aggregation algebraic multigrid (plan.go).
//
//amg:deterministic
package sparse

import (
	"errors"
	"fmt"
	"math"

	"mis2go/internal/graph"
	"mis2go/internal/par"
)

// Matrix is a sparse matrix in CSR format. Column indices within a row are
// sorted ascending for matrices that pass Validate.
//
// Concurrency: every kernel (SpMV and its fused variants, JacobiSweep,
// Diagonal, Graph, Transpose, and plan replays reading it as an
// operand) only reads the matrix and writes caller-provided outputs, so
// any number of goroutines may use one Matrix concurrently as long as
// none mutates it — Scale, direct writes to Val, and plan Replay calls
// targeting the matrix must be serialized against all readers.
type Matrix struct {
	Rows, Cols int
	RowPtr     []int   // length Rows+1
	Col        []int32 // length NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *Matrix) NNZ() int { return len(a.Col) }

// Validate checks structural invariants on the default runtime; see
// ValidateWith.
func (a *Matrix) Validate() error { return a.ValidateWith(par.Default()) }

// ValidateWith checks structural invariants in parallel over row blocks
// and reports the lowest failing row, so the error is the same at any
// worker count: first the lengths, then RowPtr monotonicity over every
// row, then for each row its columns (in range, strictly ascending)
// before its values (finite).
func (a *Matrix) ValidateWith(rt *par.Runtime) error {
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
	if err := rt.FirstError(a.Rows, a.checkRowPtr); err != nil {
		return err
	}
	return rt.FirstError(a.Rows, a.checkRows)
}

// checkRowPtr reports the first row in [lo, hi) whose RowPtr decreases.
func (a *Matrix) checkRowPtr(lo, hi int) error {
	for i := lo; i < hi; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
	}
	return nil
}

// checkRows reports the first row in [lo, hi) with an out-of-range,
// unsorted or duplicate column, or a non-finite value. RowPtr must be
// monotone.
func (a *Matrix) checkRows(lo, hi int) error {
	for i := lo; i < hi; i++ {
		prev := int32(-1) // below every valid column
		for _, c := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if c < 0 || int(c) >= a.Cols {
				return fmt.Errorf("sparse: row %d has out-of-range column %d", i, c)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d not sorted/duplicate-free", i)
			}
			prev = c
		}
		for _, v := range a.Val[a.RowPtr[i]:a.RowPtr[i+1]] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
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

// GraphWith is Graph with an explicit runtime. Row i of the graph is
// the set of columns of A's row i and of its structural transpose's row
// i, less i itself, built by graph.Collect: A's rows need not be sorted
// or duplicate-free. The graph has max(Rows, Cols) vertices, and it is
// byte-identical at any worker count.
func (a *Matrix) GraphWith(rt *par.Runtime) *graph.CSR {
	n := max(a.Rows, a.Cols)
	tPtr, tCol, _ := a.transposeBlocked(rt, n, false, nil)
	return graph.Collect(rt, n, n, a.nnzIn, func(i int, mark, buf []int32) []int32 {
		mark[i] = int32(i)
		if i < a.Rows {
			buf = appendUnstamped(a.Col[a.RowPtr[i]:a.RowPtr[i+1]], int32(i), mark, buf)
		}
		return appendUnstamped(tCol[tPtr[i]:tPtr[i+1]], int32(i), mark, buf)
	})
}

// nnzIn returns the stored-entry count of rows [lo, hi) of A, counting
// rows past the last as empty: the staging capacity graph.Collect gets
// for a pattern gathered through A's rows.
func (a *Matrix) nnzIn(lo, hi int) int {
	return a.RowPtr[min(hi, a.Rows)] - a.RowPtr[min(lo, a.Rows)]
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
func (a *Matrix) transposeBlocked(rt *par.Runtime, ncols int, withVals bool, perm []int32) (ptr []int, col []int32, val []float64) {
	ptr = make([]int, ncols+1)
	col = make([]int32, len(a.Col))
	if withVals {
		val = make([]float64, len(a.Val))
	}
	// Bound the O(nb*ncols) counting scratch (and the serial offset scan
	// over it) to a small multiple of nnz: wide matrices with many
	// workers would otherwise pay more for the per-block counters than
	// for the transpose itself. The output is blocking-independent, so
	// blocking for fewer workers (a function of the matrix shape and
	// worker count only) never changes results.
	blocks := par.New(min(rt.Workers(), 1+4*len(a.Col)/(ncols+1))).Blocks(a.Rows)
	nb := len(blocks) - 1
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
					perm[p] = int32(fill[j])
				}
				fill[j]++
			}
		}
	})
	par.Put(ar, starts)
	par.ReleaseArena(ar)
	return ptr, col, val
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
// bound (128 MiB of storage) NewDense and Factorize return a
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
	a := d.Data[:n*n]
	for k := 0; k < n; k++ {
		// Pivot selection.
		pk, pmax := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > pmax {
				pk, pmax = i, v
			}
		}
		if pmax == 0 {
			return fmt.Errorf("sparse: singular dense matrix at pivot %d", k)
		}
		d.piv[k] = pk
		// Row slices with a known length let the compiler drop the
		// bounds checks of the swap and elimination loops; every element
		// sees the same operations in the same order as indexed code.
		rowK := a[k*n : k*n+n : k*n+n]
		if pk != k {
			rowP := a[pk*n : pk*n+n : pk*n+n]
			for j, v := range rowP {
				rowK[j], rowP[j] = v, rowK[j]
			}
		}
		inv := 1 / rowK[k]
		upper := rowK[k+1:]
		for i := k + 1; i < n; i++ {
			rowI := a[i*n+k : i*n+n : i*n+n]
			l := rowI[0] * inv
			rowI[0] = l
			if l == 0 {
				continue
			}
			rest := rowI[1:]
			rest = rest[:len(upper)]
			for j, u := range upper {
				rest[j] -= l * u
			}
		}
	}
	return nil
}

// Solve solves the factorized system in place: x := A^{-1} b.
// Factorize must have been called.
func (d *Dense) Solve(b, x []float64) {
	n := d.N
	a := d.Data[:n*n]
	x = x[:n]
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := d.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
		xk := x[k]
		below := x[k+1:]
		for i := range below {
			below[i] -= a[(k+1+i)*n+k] * xk
		}
	}
	for i := n - 1; i >= 0; i-- {
		upper := a[i*n+i+1 : i*n+n]
		rest := x[i+1:]
		rest = rest[:len(upper)]
		s := x[i]
		for j, u := range upper {
			s -= u * rest[j]
		}
		x[i] = s / a[i*n+i]
	}
}
