package graph

import (
	"slices"

	"mis2go/internal/par"
)

// Collect builds an n-row pattern of sorted, duplicate-free rows with one
// walk of whatever structure defines them. row(i, mark, buf) appends to
// buf the columns of row i, each in [0, width), that are not yet stamped
// with i, stamping mark[j] = i for each. mark starts at -1 everywhere, so
// a row that stamps mark[i] = i before its walk leaves out column i.
//
// Each block of rt.Blocks(n) collects its rows into its own heap buffer,
// whose initial capacity is staging(lo, hi) for rows [lo, hi) (it grows
// if the rows need more). A scan of the row lengths gives RowPtr, and
// every row is sorted where it lands in Col. A row's column set depends
// only on the structure walked, never on the discovery order or the
// blocking, so RowPtr and Col are byte-identical at any worker count.
// This is the one builder of the fine graph (sparse.Matrix.GraphWith),
// the coarse graph (coarsen.CoarseGraph), the square (Square) and the
// SpGEMM plan patterns.
func Collect(rt *par.Runtime, n, width int, staging func(lo, hi int) int, row func(i int, mark, buf []int32) []int32) *CSR {
	ptr := make([]int, n+1)
	blocks := rt.Blocks(n)
	bufs := make([][]int32, len(blocks)-1)
	rt.ForBlocks(len(bufs), func(blk int) {
		lo, hi := blocks[blk], blocks[blk+1]
		ar := par.AcquireArena()
		mark := par.Get[int32](ar, width)
		for i := range mark {
			mark[i] = -1
		}
		buf := make([]int32, 0, staging(lo, hi))
		for i := lo; i < hi; i++ {
			k := len(buf)
			buf = row(i, mark, buf)
			ptr[i] = len(buf) - k
		}
		bufs[blk] = buf
		par.Put(ar, mark)
		par.ReleaseArena(ar)
	})
	col := make([]int32, par.ScanExclusive(rt, ptr[:n], ptr))
	rt.ForBlocks(len(bufs), func(blk int) {
		copy(col[ptr[blocks[blk]]:], bufs[blk])
		for i := blocks[blk]; i < blocks[blk+1]; i++ {
			sortRow(col[ptr[i]:ptr[i+1]])
		}
	})
	return &CSR{N: n, RowPtr: ptr, Col: col}
}

// insertionSortThreshold is the row length at or below which sortRow
// uses a branchy insertion sort; above it, slices.Sort (pdqsort,
// closure-free). Mesh, coarse-graph and Galerkin rows are almost always
// short, so insertion sort dominates in practice.
const insertionSortThreshold = 32

// sortRow sorts a column slice in place.
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
