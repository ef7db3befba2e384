package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mis2go/internal/par"
)

// SELL-C-sigma: the sliced-ELLPACK operator format for the memory-bound
// kernel core. Rows are grouped into chunks of C = 8; within each sort
// window of sigma = 4096 rows, rows are stably ordered by descending
// length so that, inside every chunk, the rows still holding an entry at column
// position j form a prefix of the chunk's lanes. Entries are stored
// column-position-major per chunk — position j of all active lanes
// contiguously — so the kernel keeps C independent accumulators (one per
// lane) and streams val/col linearly while gathering from x.
//
// Two deviations from textbook SELL-C-sigma, both in service of this
// package's determinism contract:
//
//   - Columns are compressed, not padded: each column position stores
//     only its active lanes (a count per position, descending within a
//     chunk). Padding with zeros would not only waste bandwidth but also
//     perturb results — s + 0*x[j] is not a bitwise no-op when s is -0
//     or x[j] is non-finite.
//   - Position j of a lane is the j-th stored entry of that row in the
//     source CSR matrix, and every lane accumulates strictly left to
//     right with a single accumulator — exactly the canonical per-row
//     order of the CSR kernels (csrOf.rowDot). A SELL operator therefore
//     produces bit-identical results to its CSR source, for every
//     kernel and every worker count; the row permutation affects only
//     where writes land, never what is summed in what order.
//
// The packed layout also records, per stored entry, the index of the
// CSR entry it came from. Refreshing values for a same-pattern matrix
// (the AMG numeric/Refresh path) is then a branch-free gather —
// FillValues — with zero allocations.
//
// Concurrency: like *Matrix, all kernels are read-only on the operator
// and safe for concurrent use; FillValues mutates the packed values and
// must be serialized against every reader.
type SELL struct {
	rows, cols int
	perm       []int32 // lane slot -> original row; length rows
	chunkPtr   []int32 // length nchunks+1: first packed entry of chunk
	width      []int32 // per chunk: length of its longest row
	full       []int32 // per chunk: leading positions with all C lanes active
	cntPtr     []int32 // length nchunks+1: first cnt index of chunk
	cnt        []uint8 // per (chunk, position): active lane count
	col        []int32 // packed column indices
	val        []float64
	entry      []int32 // packed position -> CSR entry index (value replay)
}

// sellC is the SELL chunk size: the number of rows (lanes, independent
// accumulators) each chunk kernel processes at once.
const sellC = 8

// sellSigma is the sort window: windows of this many rows are
// length-sorted. Large enough to make chunks near-uniform on meshes
// with mixed interior/boundary rows, small enough that the row
// permutation stays local and the gathers from x keep their locality.
const sellSigma = 4096

// NewSELL converts a CSR matrix to SELL-C-sigma. The conversion is
// deterministic: the length sort is stable, so ties keep row order.
// Matrices whose entry count overflows the 32-bit replay schedule are
// rejected.
func NewSELL(a *Matrix) (*SELL, error) { return newSELL(a, sellSigma) }

// newSELL is NewSELL with an explicit sort window sigma, a positive
// multiple of sellC (a window below one chunk cannot keep the active
// lanes a prefix, and an unaligned one would make a chunk straddle two
// windows). Only tests pick a window other than sellSigma.
func newSELL(a *Matrix, sigma int) (*SELL, error) {
	if len(a.Col) > math.MaxInt32 || a.Rows > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: SELL conversion of %dx%d matrix with %d entries overflows the 32-bit entry schedule",
			a.Rows, a.Cols, len(a.Col))
	}
	n := a.Rows
	s := &SELL{rows: n, cols: a.Cols}
	s.perm = make([]int32, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	rowLen := func(r int32) int { return a.RowPtr[r+1] - a.RowPtr[r] }
	for lo := 0; lo < n; lo += sigma {
		hi := min(lo+sigma, n)
		slices.SortStableFunc(s.perm[lo:hi], func(p, q int32) int {
			return cmp.Compare(rowLen(q), rowLen(p)) // descending
		})
	}

	nchunks := (n + sellC - 1) / sellC
	s.chunkPtr = make([]int32, nchunks+1)
	s.width = make([]int32, nchunks)
	s.full = make([]int32, nchunks)
	s.cntPtr = make([]int32, nchunks+1)
	s.col = make([]int32, 0, len(a.Col))
	s.val = make([]float64, 0, len(a.Col))
	s.entry = make([]int32, 0, len(a.Col))
	for c := 0; c < nchunks; c++ {
		lanes := s.perm[c*sellC : min(c*sellC+sellC, n)]
		w := 0
		for _, r := range lanes {
			w = max(w, rowLen(r))
		}
		full := 0
		if len(lanes) == sellC {
			full = rowLen(lanes[sellC-1]) // shortest lane: lanes are sorted
		}
		s.width[c] = int32(w)
		s.full[c] = int32(full)
		s.chunkPtr[c] = int32(len(s.col))
		s.cntPtr[c] = int32(len(s.cnt))
		for j := 0; j < w; j++ {
			m := 0
			for _, r := range lanes {
				if rowLen(r) <= j {
					break // descending lengths: the rest are shorter too
				}
				p := a.RowPtr[r] + j
				s.col = append(s.col, a.Col[p])
				s.val = append(s.val, a.Val[p])
				s.entry = append(s.entry, int32(p))
				m++
			}
			s.cnt = append(s.cnt, uint8(m))
		}
	}
	s.chunkPtr[nchunks] = int32(len(s.col))
	s.cntPtr[nchunks] = int32(len(s.cnt))
	return s, nil
}

// FillValues refreshes the packed values from a same-pattern CSR matrix
// — a branch-free gather through the cached entry schedule, zero
// allocations. Only the shape and entry count are checked here;
// pattern identity is the caller's contract (the AMG hierarchy
// fingerprints it).
func (s *SELL) FillValues(a *Matrix) error {
	if a.Rows != s.rows || a.Cols != s.cols || len(a.Val) != len(s.val) {
		return fmt.Errorf("sparse: SELL refresh from %dx%d/%d entries, converted from %dx%d/%d",
			a.Rows, a.Cols, len(a.Val), s.rows, s.cols, len(s.val))
	}
	av := a.Val
	for p, e := range s.entry {
		s.val[p] = av[e]
	}
	return nil
}

// Dims returns the operator shape, implementing Operator.
func (s *SELL) Dims() (rows, cols int) { return s.rows, s.cols }

// NNZ returns the number of stored entries.
func (s *SELL) NNZ() int { return len(s.col) }

// nchunks returns the chunk count.
func (s *SELL) nchunks() int { return len(s.width) }

// chunkAccum computes the row products of chunk c: accumulator l holds
// the dot product of lane l's row with x, each accumulated strictly left
// to right (the canonical per-row order shared with the CSR kernels).
// The full-lane prefix of positions runs an unrolled two-position step
// with eight independent dependency chains; trailing positions walk the
// per-position lane counts, which descend within the chunk.
//
//amg:hotpath
func (s *SELL) chunkAccum(x []float64, c int) (a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	col, val := s.col, s.val
	p := int(s.chunkPtr[c])
	f := int(s.full[c])
	for j := 0; j+2 <= f; j += 2 {
		cb := col[p : p+16 : p+16]
		vb := val[p : p+16 : p+16]
		a0 += vb[0] * x[cb[0]]
		a0 += vb[8] * x[cb[8]]
		a1 += vb[1] * x[cb[1]]
		a1 += vb[9] * x[cb[9]]
		a2 += vb[2] * x[cb[2]]
		a2 += vb[10] * x[cb[10]]
		a3 += vb[3] * x[cb[3]]
		a3 += vb[11] * x[cb[11]]
		a4 += vb[4] * x[cb[4]]
		a4 += vb[12] * x[cb[12]]
		a5 += vb[5] * x[cb[5]]
		a5 += vb[13] * x[cb[13]]
		a6 += vb[6] * x[cb[6]]
		a6 += vb[14] * x[cb[14]]
		a7 += vb[7] * x[cb[7]]
		a7 += vb[15] * x[cb[15]]
		p += 16
	}
	if f&1 == 1 {
		cb := col[p : p+8 : p+8]
		vb := val[p : p+8 : p+8]
		a0 += vb[0] * x[cb[0]]
		a1 += vb[1] * x[cb[1]]
		a2 += vb[2] * x[cb[2]]
		a3 += vb[3] * x[cb[3]]
		a4 += vb[4] * x[cb[4]]
		a5 += vb[5] * x[cb[5]]
		a6 += vb[6] * x[cb[6]]
		a7 += vb[7] * x[cb[7]]
		p += 8
	}
	if w := int(s.width[c]); f < w {
		cnt := s.cnt
		base := int(s.cntPtr[c])
		for j := f; j < w; j++ {
			// Active lanes are a prefix; past the full positions the count
			// is at most sellC-1 (and at least 1, or the width would end).
			m := cnt[base+j]
			a0 += val[p] * x[col[p]]
			p++
			if m > 1 {
				a1 += val[p] * x[col[p]]
				p++
			}
			if m > 2 {
				a2 += val[p] * x[col[p]]
				p++
			}
			if m > 3 {
				a3 += val[p] * x[col[p]]
				p++
			}
			if m > 4 {
				a4 += val[p] * x[col[p]]
				p++
			}
			if m > 5 {
				a5 += val[p] * x[col[p]]
				p++
			}
			if m > 6 {
				a6 += val[p] * x[col[p]]
				p++
			}
		}
	}
	return
}

// SpMV computes y = A*x, parallel over chunks. Bit-identical to the CSR
// SpMV of the source matrix for every worker count.
func (s *SELL) SpMV(rt *par.Runtime, x, y []float64) {
	s.product(rt, epSet, nil, nil, 0, x, y)
}

// SpMVResidual computes r = b - A*x in one traversal. r must not alias x.
func (s *SELL) SpMVResidual(rt *par.Runtime, b, x, r []float64) {
	s.product(rt, epResidual, b, nil, 0, x, r)
}

// SpMVAdd computes y += A*x in one traversal. y must not alias x.
func (s *SELL) SpMVAdd(rt *par.Runtime, x, y []float64) {
	s.product(rt, epAdd, nil, nil, 0, x, y)
}

// JacobiSweep computes dst[i] = src[i] + omega*dinv[i]*(b[i] - (A src)[i])
// in one traversal — the fused damped-Jacobi sweep, bit-identical to
// Matrix.JacobiSweep. src and dst must not alias.
func (s *SELL) JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64) {
	s.product(rt, epJacobi, b, dinv, omega, src, dst)
}

// product runs one product kernel (see csrOf.product) over the chunks.
// The runtime blocks over rows, not chunks, so the parallel split
// threshold is identical to the CSR kernels — a level does not need
// sellC times more rows before it splits across workers. A row block
// [lo, hi) takes the chunks whose first row falls inside it;
// consecutive blocks tile the rows, so every chunk lands in exactly one
// block. The serial fast path builds no closure and allocates nothing.
//
//amg:hotpath
func (s *SELL) product(rt *par.Runtime, k epilogue, b, dinv []float64, omega float64, x, y []float64) {
	if rt.Serial(s.rows) {
		s.productChunks(k, b, dinv, omega, x, y, 0, s.nchunks())
		return
	}
	rt.For(s.rows, func(lo, hi int) {
		s.productChunks(k, b, dinv, omega, x, y, (lo+sellC-1)/sellC, (hi+sellC-1)/sellC)
	})
}

// productChunks is the product kernel for chunks [c0, c1): chunkAccum
// forms each chunk's eight row products, and one write stores them
// through the permutation, unrolled for full chunks and a lane loop for
// the partial tail chunk. Both apply the epilogue through out.put. A
// lane loop for full chunks too, with the epilogue switch hoisted per
// chunk, measured slower than this unrolled write on both SpMV and the
// Jacobi sweep.
//
//amg:hotpath
func (s *SELL) productChunks(k epilogue, b, dinv []float64, omega float64, x, y []float64, c0, c1 int) {
	out := epilogueArgs{k: k, b: b, dinv: dinv, omega: omega, x: x, y: y}
	for c := c0; c < c1; c++ {
		a0, a1, a2, a3, a4, a5, a6, a7 := s.chunkAccum(x, c)
		slot := c * sellC
		if slot+sellC <= s.rows {
			pm := s.perm[slot : slot+sellC : slot+sellC]
			out.put(pm[0], a0)
			out.put(pm[1], a1)
			out.put(pm[2], a2)
			out.put(pm[3], a3)
			out.put(pm[4], a4)
			out.put(pm[5], a5)
			out.put(pm[6], a6)
			out.put(pm[7], a7)
			continue
		}
		acc := [sellC]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, r := range s.perm[slot:s.rows] {
			out.put(r, acc[l])
		}
	}
}

// epilogueArgs holds one product call's epilogue and its operands.
type epilogueArgs struct {
	k       epilogue
	b, dinv []float64
	omega   float64
	x, y    []float64
}

// put stores row r's new value given its product v. The switch inlines
// into the chunk loop; k is the same for every row of a call, so the
// branch always predicts.
//
//amg:hotpath
func (o *epilogueArgs) put(r int32, v float64) {
	switch o.k {
	case epSet:
		o.y[r] = v
	case epResidual:
		o.y[r] = o.b[r] - v
	case epAdd:
		o.y[r] += v
	case epJacobi:
		o.y[r] = o.x[r] + o.omega*o.dinv[r]*(o.b[r]-v)
	}
}
