package sparse

import (
	"slices"
	"testing"

	"mis2go/internal/graph"
	"mis2go/internal/par"
)

// graphFromEdges is the serial reference for GraphWith: materialize both
// triangles of A as an edge list and let graph.FromEdges sort and dedupe
// every row. It reads A's rows in any order and with any repeats.
func graphFromEdges(a *Matrix) *graph.CSR {
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
	return graph.FromEdges(max(a.Rows, a.Cols), edges)
}

// checkGraphWith requires GraphWith at 1, 2 and 8 workers to pass
// Validate and to equal graphFromEdges(a) in N, RowPtr and Col.
func checkGraphWith(t *testing.T, name string, a *Matrix) {
	t.Helper()
	want := graphFromEdges(a)
	for _, w := range []int{1, 2, 8} {
		got := a.GraphWith(par.New(w))
		if err := got.Validate(); err != nil {
			t.Fatalf("%s at %d workers: invalid graph: %v", name, w, err)
		}
		switch {
		case got.N != want.N:
			t.Fatalf("%s at %d workers: N = %d, want %d", name, w, got.N, want.N)
		case !slices.Equal(got.RowPtr, want.RowPtr):
			t.Fatalf("%s at %d workers: RowPtr = %v, want %v", name, w, got.RowPtr, want.RowPtr)
		case !slices.Equal(got.Col, want.Col):
			t.Fatalf("%s at %d workers: Col = %v, want %v", name, w, got.Col, want.Col)
		}
	}
}

// TestGraphUnsortedRows pins the seed behavior: Graph() must tolerate
// hand-built matrices whose rows are unsorted or contain duplicates
// (valid for SpMV, rejected by Validate) and give the graph of the
// sorted equivalent.
func TestGraphUnsortedRows(t *testing.T) {
	// 3x3 matrix with row 0 unsorted: entries (0,2), (0,1).
	a := &Matrix{
		Rows: 3, Cols: 3,
		RowPtr: []int{0, 2, 4, 6},
		Col:    []int32{2, 1, 0, 1, 0, 2},
		Val:    []float64{1, 1, 1, 2, 1, 3},
	}
	sorted := &Matrix{
		Rows: 3, Cols: 3,
		RowPtr: []int{0, 2, 4, 6},
		Col:    []int32{1, 2, 0, 1, 0, 2},
		Val:    []float64{1, 1, 1, 2, 1, 3},
	}
	checkGraphWith(t, "unsorted", a)
	checkGraphWith(t, "sorted", sorted)
}

// canonicalize returns a copy of a with every row sorted and
// deduplicated (first value kept per column) — a matrix that satisfies
// the Validate invariant.
func canonicalize(a *Matrix) *Matrix {
	c := &Matrix{Rows: a.Rows, Cols: a.Cols}
	c.RowPtr = make([]int, a.Rows+1)
	for i := 0; i < a.Rows; i++ {
		type cv struct {
			col int32
			val float64
		}
		row := make([]cv, 0, a.RowPtr[i+1]-a.RowPtr[i])
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			row = append(row, cv{a.Col[p], a.Val[p]})
		}
		slices.SortStableFunc(row, func(x, y cv) int { return int(x.col) - int(y.col) })
		for k, e := range row {
			if k > 0 && row[k-1].col == e.col {
				continue
			}
			c.Col = append(c.Col, e.col)
			c.Val = append(c.Val, e.val)
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// TestGraphAdversarial feeds GraphWith matrices that violate the
// sorted/duplicate-free row invariant in every way the tolerant contract
// admits — duplicate columns, reverse-sorted rows, empty rows,
// self-loop-only rows — and requires the graph of each, and of its
// canonicalized equivalent, to equal the serial reference bit for bit
// (RowPtr and Col) at every worker count. FuzzGraphWith's seed corpus
// holds the same five matrices.
func TestGraphAdversarial(t *testing.T) {
	cases := map[string]*Matrix{
		"duplicate columns": {
			Rows: 4, Cols: 4,
			RowPtr: []int{0, 3, 5, 7, 8},
			Col:    []int32{1, 1, 2, 0, 0, 3, 3, 2},
			Val:    []float64{1, 2, 3, 4, 5, 6, 7, 8},
		},
		"reverse sorted rows": {
			Rows: 4, Cols: 4,
			RowPtr: []int{0, 3, 6, 8, 10},
			Col:    []int32{3, 2, 1, 2, 1, 0, 3, 0, 2, 1},
			Val:    []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		},
		"empty rows": {
			Rows: 5, Cols: 5,
			RowPtr: []int{0, 0, 2, 2, 4, 4},
			Col:    []int32{4, 0, 2, 1},
			Val:    []float64{1, 2, 3, 4},
		},
		"self loop only rows": {
			Rows: 4, Cols: 4,
			RowPtr: []int{0, 1, 3, 4, 6},
			Col:    []int32{0, 1, 0, 2, 3, 3},
			Val:    []float64{1, 2, 3, 4, 5, 6},
		},
		"mixed adversarial": {
			// Duplicates, reverse order, self loops and an empty row in
			// one matrix; also rectangular-ish indices at the boundary.
			Rows: 6, Cols: 6,
			RowPtr: []int{0, 4, 4, 7, 9, 10, 12},
			Col:    []int32{5, 5, 0, 2, 4, 2, 2, 3, 1, 4, 1, 1},
			Val:    []float64{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		},
	}
	for name, a := range cases {
		canon := canonicalize(a)
		if err := canon.Validate(); err != nil {
			t.Fatalf("%s: canonicalized matrix is invalid: %v", name, err)
		}
		checkGraphWith(t, name, a)
		checkGraphWith(t, name+" (canonical)", canon)
	}
}

// decodeGraphMatrix decodes a FuzzGraphWith input into a matrix whose
// columns are in range but whose rows may be unsorted, repeat a column,
// be empty or store the diagonal. Layout: data[0] and data[1] give a
// tile's rows and columns (0..40 each, so Rows != Cols and empty shapes
// occur), data[2] the tile count (1..64, tiles stacked block-diagonally,
// so larger inputs cross the parallel split threshold). The rest is a
// byte stream, reused from the start when it runs out: each row takes
// one byte for its length (0..7), then one byte per entry, whose column
// within the tile is the byte modulo the tile's columns. Every row is
// empty when the tile has no columns or the stream is empty. Every value
// is 1. Returns false for inputs shorter than the header.
func decodeGraphMatrix(data []byte) (*Matrix, bool) {
	if len(data) < 3 {
		return nil, false
	}
	rows, cols, tiles := int(data[0])%41, int(data[1])%41, 1+int(data[2])%64
	stream := data[3:]
	next := 0
	take := func() int {
		if next == len(stream) {
			next = 0
		}
		next++
		return int(stream[next-1])
	}
	a := &Matrix{Rows: rows * tiles, Cols: cols * tiles, RowPtr: make([]int, 1, rows*tiles+1)}
	for t := 0; t < tiles; t++ {
		for i := 0; i < rows; i++ {
			if cols > 0 && len(stream) > 0 {
				for k := take() % 8; k > 0; k-- {
					a.Col = append(a.Col, int32(t*cols+take()%cols))
					a.Val = append(a.Val, 1)
				}
			}
			a.RowPtr = append(a.RowPtr, len(a.Col))
		}
	}
	return a, true
}

// FuzzGraphWith is the differential oracle of GraphWith: on decoded
// matrices with unsorted rows, repeated columns, empty rows, diagonal
// entries and Rows != Cols, the graph at 1, 2 and 8 workers must pass
// Validate and equal graphFromEdges byte for byte. Its seed corpus (the
// five TestGraphAdversarial matrices plus a tiled one) is in
// testdata/fuzz/FuzzGraphWith; run it with make fuzz.
func FuzzGraphWith(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, ok := decodeGraphMatrix(data)
		if !ok {
			t.Skip("input shorter than the header")
		}
		checkGraphWith(t, "decoded", a)
	})
}
