package graph

import (
	"slices"
	"testing"

	"mis2go/internal/par"
)

// collectCase is a Collect input given as explicit discovery lists:
// row i emits lists[i] in order, repeats included, after stamping each
// column in exclude[i] so that it is left out.
type collectCase struct {
	width   int
	lists   [][]int32
	exclude [][]int32
}

// collect runs Collect on the case with a staging capacity smaller than
// most blocks need, so buffers regrow.
func (c collectCase) collect(rt *par.Runtime) *CSR {
	return Collect(rt, len(c.lists), c.width,
		func(lo, hi int) int { return hi - lo },
		func(i int, mark, buf []int32) []int32 {
			for _, j := range c.exclude[i] {
				mark[j] = int32(i)
			}
			for _, j := range c.lists[i] {
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					buf = append(buf, j)
				}
			}
			return buf
		})
}

// want is the serial reference: each list sorted and deduplicated, less
// its excluded columns.
func (c collectCase) want() *CSR {
	g := &CSR{N: len(c.lists), RowPtr: []int{0}, Col: []int32{}}
	for i, l := range c.lists {
		row := slices.Clone(l)
		slices.Sort(row)
		row = slices.Compact(row)
		row = slices.DeleteFunc(row, func(j int32) bool { return slices.Contains(c.exclude[i], j) })
		g.Col = append(g.Col, row...)
		g.RowPtr = append(g.RowPtr, len(g.Col))
	}
	return g
}

// collectCases builds the Collect test inputs. Their rows cover empty
// rows, rows discovered in descending order, rows that exclude their own
// index, and rows longer than insertionSortThreshold; the large cases
// cross the parallel split at 2 and 8 workers.
func collectCases() map[string]collectCase {
	cases := map[string]collectCase{
		"n=0":          {width: 0},
		"n=0 wide":     {width: 5},
		"one empty":    {width: 1, lists: [][]int32{nil}, exclude: [][]int32{nil}},
		"single self":  {width: 1, lists: [][]int32{{0, 0}}, exclude: [][]int32{{0}}},
		"short mixed":  {width: 4, lists: [][]int32{{3, 1, 3, 0}, nil, {2, 2}}, exclude: [][]int32{nil, nil, {2}}},
		"all excluded": {width: 3, lists: [][]int32{{0, 1, 2}, {2, 1, 0}}, exclude: [][]int32{{0, 1, 2}, {0, 1, 2}}},
	}
	const n = 3000
	mixed := collectCase{width: n, lists: make([][]int32, n), exclude: make([][]int32, n)}
	for i := 0; i < n; i++ {
		var l []int32
		switch i % 5 {
		case 0: // empty
		case 1: // descending through i, which the row excludes
			for j := min(i+6, n-1); j >= max(i-6, 0); j-- {
				l = append(l, int32(j), int32(j))
			}
			mixed.exclude[i] = []int32{int32(i)}
		case 2: // longer than insertionSortThreshold, scattered, repeats
			for k := 0; k < 3*insertionSortThreshold; k++ {
				l = append(l, int32((i*7919+k*k*104729)%n))
			}
		case 3: // exactly at the threshold, descending
			for k := insertionSortThreshold - 1; k >= 0; k-- {
				l = append(l, int32((i+k*37)%n))
			}
		case 4: // one past the threshold, excluding its own index
			for k := insertionSortThreshold; k >= 0; k-- {
				l = append(l, int32((i+k)%n))
			}
			mixed.exclude[i] = []int32{int32(i)}
		}
		mixed.lists[i] = l
	}
	cases["mixed 3000"] = mixed
	empty := collectCase{width: 7, lists: make([][]int32, n), exclude: make([][]int32, n)}
	cases["empty 3000"] = empty
	return cases
}

// TestCollectBitwiseMatchesReference requires Collect at 1, 2 and 8
// workers to equal the serial reference in N, RowPtr and Col.
func TestCollectBitwiseMatchesReference(t *testing.T) {
	for name, c := range collectCases() {
		want := c.want()
		for _, w := range []int{1, 2, 8} {
			got := c.collect(par.New(w))
			switch {
			case got.N != want.N:
				t.Fatalf("%s at %d workers: N = %d, want %d", name, w, got.N, want.N)
			case !slices.Equal(got.RowPtr, want.RowPtr):
				t.Fatalf("%s at %d workers: RowPtr differs", name, w)
			case !slices.Equal(got.Col, want.Col):
				t.Fatalf("%s at %d workers: Col differs", name, w)
			}
		}
	}
}
