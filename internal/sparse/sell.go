package sparse

import (
	"fmt"
	"math"

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
// A conversion is a count pass and a copy: a stable counting sort on
// row length orders each sort window, the lane lengths size every chunk
// and its count run, and a prefix sum over the chunks places them, so
// the chunks fill in parallel, each written by index. Refreshing values
// for a same-pattern matrix (the AMG numeric/Refresh path) walks the
// chunks the same way — FillValues — with zero allocations at one
// worker and no per-entry index stored.
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
}

// sellC is the SELL chunk size: the number of rows (lanes, independent
// accumulators) each chunk kernel processes at once.
const sellC = 8

// sellSigma is the sort window: windows of this many rows are
// length-sorted. Large enough to make chunks near-uniform on meshes
// with mixed interior/boundary rows, small enough that the row
// permutation stays local and the gathers from x keep their locality.
const sellSigma = 4096

// NewSELL converts a CSR matrix to SELL-C-sigma on the default runtime.
// The conversion is deterministic: the length sort is stable, so ties
// keep row order, and the layout is the same at any worker count.
// Matrices whose entry count overflows the 32-bit chunk offsets are
// rejected.
func NewSELL(a *Matrix) (*SELL, error) { return newSELL(par.Default(), a, sellSigma) }

// newSELL is NewSELL with an explicit runtime and sort window sigma, a
// positive multiple of sellC (a window below one chunk cannot keep the
// active lanes a prefix, and an unaligned one would make a chunk
// straddle two windows). Only tests pick a window other than sellSigma.
func newSELL(rt *par.Runtime, a *Matrix, sigma int) (*SELL, error) {
	if len(a.Col) > math.MaxInt32 || a.Rows > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: SELL conversion of %dx%d matrix with %d entries overflows the 32-bit chunk offsets",
			a.Rows, a.Cols, len(a.Col))
	}
	n := a.Rows
	nchunks := (n + sellC - 1) / sellC
	s := &SELL{
		rows: n, cols: a.Cols,
		perm:     make([]int32, n),
		chunkPtr: make([]int32, nchunks+1),
		width:    make([]int32, nchunks),
		full:     make([]int32, nchunks),
		cntPtr:   make([]int32, nchunks+1),
	}
	// Sort each window and size its chunks: chunkPtr[c+1] and
	// cntPtr[c+1] first hold chunk c's entry and position counts.
	rt.ForBlocks((n+sigma-1)/sigma, func(w int) {
		lo, hi := w*sigma, min(w*sigma+sigma, n)
		s.sortWindow(a.RowPtr, lo, hi)
		for c := lo / sellC; c < (hi+sellC-1)/sellC; c++ {
			s.sizeChunk(a.RowPtr, c)
		}
	})
	for c := 0; c < nchunks; c++ {
		s.chunkPtr[c+1] += s.chunkPtr[c]
		s.cntPtr[c+1] += s.cntPtr[c]
	}
	s.col = make([]int32, len(a.Col))
	s.val = make([]float64, len(a.Val))
	s.cnt = make([]uint8, s.cntPtr[nchunks])
	rt.For(n, func(lo, hi int) {
		for c := (lo + sellC - 1) / sellC; c < (hi+sellC-1)/sellC; c++ {
			s.countChunk(a.RowPtr, c)
			gatherChunk(s, a.RowPtr, a.Col, s.col, c)
			gatherChunk(s, a.RowPtr, a.Val, s.val, c)
		}
	})
	return s, nil
}

// sortWindow orders rows [lo, hi) into perm[lo:hi] by descending
// length with a stable counting sort: ties keep row order, exactly as a
// stable comparison sort would leave them.
func (s *SELL) sortWindow(rowPtr []int, lo, hi int) {
	longest := 0
	for i := lo; i < hi; i++ {
		longest = max(longest, rowPtr[i+1]-rowPtr[i])
	}
	ar := par.AcquireArena()
	// at[k] counts the rows of length k, then becomes the next slot of
	// that length: the rows of every greater length come first.
	at := par.GetZeroed[int](ar, longest+1)
	for i := lo; i < hi; i++ {
		at[rowPtr[i+1]-rowPtr[i]]++
	}
	run := lo
	for k := longest; k >= 0; k-- {
		at[k], run = run, run+at[k]
	}
	for i := lo; i < hi; i++ {
		k := rowPtr[i+1] - rowPtr[i]
		s.perm[at[k]] = int32(i)
		at[k]++
	}
	par.Put(ar, at)
	par.ReleaseArena(ar)
}

// sizeChunk records chunk c's width and full-lane prefix from its sorted
// lanes, and its entry and position counts in chunkPtr[c+1] and
// cntPtr[c+1] for the prefix sum.
func (s *SELL) sizeChunk(rowPtr []int, c int) {
	lanes := s.perm[c*sellC : min(c*sellC+sellC, s.rows)]
	nnz := 0
	for _, r := range lanes {
		nnz += rowPtr[r+1] - rowPtr[r]
	}
	w := rowPtr[lanes[0]+1] - rowPtr[lanes[0]] // lanes descend in length
	full := 0
	if len(lanes) == sellC {
		full = rowPtr[lanes[sellC-1]+1] - rowPtr[lanes[sellC-1]]
	}
	s.width[c], s.full[c] = int32(w), int32(full)
	s.chunkPtr[c+1], s.cntPtr[c+1] = int32(nnz), int32(w)
}

// countChunk writes chunk c's active-lane count for each of its
// positions: the lanes longer than position j, a prefix of the chunk.
func (s *SELL) countChunk(rowPtr []int, c int) {
	lanes := s.perm[c*sellC : min(c*sellC+sellC, s.rows)]
	cnt := s.cnt[s.cntPtr[c]:s.cntPtr[c+1]]
	m := len(lanes)
	for j := range cnt {
		for m > 0 && rowPtr[lanes[m-1]+1]-rowPtr[lanes[m-1]] <= j {
			m--
		}
		cnt[j] = uint8(m)
	}
}

// gatherChunk copies chunk c's entries from src, a CSR entry array (Col
// or Val) with row pointers rowPtr, into dst in packed order: position j
// of each active lane, lane by lane, position by position — the order
// chunkAccum reads them in. The full-lane prefix copies all C lanes per
// position; the trailing positions walk the lane counts.
//
//amg:hotpath
func gatherChunk[T int32 | float64](s *SELL, rowPtr []int, src, dst []T, c int) {
	slot := c * sellC
	var at [sellC]int // first CSR entry of each lane's row
	for l, r := range s.perm[slot:min(slot+sellC, s.rows)] {
		at[l] = rowPtr[r]
	}
	p := int(s.chunkPtr[c])
	f := int(s.full[c])
	for j := 0; j < f; j++ {
		d := dst[p : p+sellC : p+sellC]
		d[0] = src[at[0]+j]
		d[1] = src[at[1]+j]
		d[2] = src[at[2]+j]
		d[3] = src[at[3]+j]
		d[4] = src[at[4]+j]
		d[5] = src[at[5]+j]
		d[6] = src[at[6]+j]
		d[7] = src[at[7]+j]
		p += sellC
	}
	cnt := s.cnt[s.cntPtr[c]:s.cntPtr[c+1]]
	for j := f; j < len(cnt); j++ {
		for l := range int(cnt[j]) {
			dst[p] = src[at[l]+j]
			p++
		}
	}
}

// FillValues refreshes the packed values from a same-pattern CSR matrix,
// walking the chunks as the kernels do (gatherChunk), in parallel over
// the same row blocks; the serial path builds no closure and allocates
// nothing. Only the shape and entry count are checked here; pattern
// identity is the caller's contract (the AMG hierarchy fingerprints it).
func (s *SELL) FillValues(rt *par.Runtime, a *Matrix) error {
	if a.Rows != s.rows || a.Cols != s.cols || len(a.Val) != len(s.val) {
		return fmt.Errorf("sparse: SELL refresh from %dx%d/%d entries, converted from %dx%d/%d",
			a.Rows, a.Cols, len(a.Val), s.rows, s.cols, len(s.val))
	}
	if rt.Serial(s.rows) {
		s.fillChunks(a, 0, s.nchunks())
		return nil
	}
	rt.For(s.rows, func(lo, hi int) {
		s.fillChunks(a, (lo+sellC-1)/sellC, (hi+sellC-1)/sellC)
	})
	return nil
}

// fillChunks refills the values of chunks [c0, c1) from a.
//
//amg:hotpath
func (s *SELL) fillChunks(a *Matrix, c0, c1 int) {
	for c := c0; c < c1; c++ {
		gatherChunk(s, a.RowPtr, a.Val, s.val, c)
	}
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
