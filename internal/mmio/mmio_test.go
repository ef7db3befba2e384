package mmio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/mis"
)

const sampleGeneral = `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
1 2 -1.0
2 2 3.5
3 1 0.25
`

const sampleSymmetric = `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 4.0
2 1 -1.0
3 3 2.0
`

const samplePattern = `%%MatrixMarket matrix coordinate pattern symmetric
4 4 3
2 1
3 2
4 3
`

func TestReadGeneral(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(sampleGeneral))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 4 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	d := m.Diagonal()
	if d[0] != 2.0 || d[1] != 3.5 || d[2] != 0 {
		t.Fatalf("diagonal %v", d)
	}
}

func TestReadSymmetricExpands(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(sampleSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 { // 2 diagonal + mirrored off-diagonal pair
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	at := m.Transpose()
	for i := range m.Val {
		if m.Col[i] != at.Col[i] || m.Val[i] != at.Val[i] {
			t.Fatal("expanded matrix not symmetric")
		}
	}
}

func TestReadPatternAsGraph(t *testing.T) {
	g, err := ReadGraph(strings.NewReader(samplePattern))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 6 {
		t.Fatalf("N=%d E=%d", g.N, g.NumEdges())
	}
	// It is a path 1-2-3-4: run MIS-2 end to end on the parsed graph.
	res := mis.MIS2(g, mis.Options{})
	if err := mis.CheckMIS2(g, res.InSet); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	g := gen.Laplace2D(7, 7)
	a := gen.WeightedLaplacian(g, 0.3, 5)
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != a.Rows || b.NNZ() != a.NNZ() {
		t.Fatal("round trip changed shape")
	}
	for i := range a.Val {
		if a.Col[i] != b.Col[i] || math.Abs(a.Val[i]-b.Val[i]) > 1e-15 {
			t.Fatalf("entry %d changed: %g vs %g", i, a.Val[i], b.Val[i])
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := gen.Laplace3D(4, 4, 4)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != g.N || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed graph: %d/%d vs %d/%d", h.N, h.NumEdges(), g.N, g.NumEdges())
	}
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if !h.HasEdge(v, w) {
				t.Fatalf("edge (%d,%d) lost", v, w)
			}
		}
	}
}

// TestMalformedInputsRejected pins the hardening contract: out-of-range
// indices, duplicate coordinates (including symmetric mirror pairs), and
// truncated or over-long files produce descriptive errors instead of
// silent corruption or panics.
func TestMalformedInputsRejected(t *testing.T) {
	cases := map[string]struct {
		in      string
		wantSub string // substring the error must contain
	}{
		"duplicate entry": {
			in:      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.5\n2 2 1.0\n",
			wantSub: "duplicate coordinate entry (1,1)",
		},
		"duplicate after sort": {
			in:      "%%MatrixMarket matrix coordinate real general\n3 3 3\n2 2 1.0\n1 1 1.0\n2 2 4.0\n",
			wantSub: "duplicate coordinate entry (2,2)",
		},
		"symmetric both triangles": {
			in:      "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n2 1 -1.0\n1 2 -1.0\n",
			wantSub: "mirror is implied",
		},
		"truncated file": {
			in:      "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1.0\n2 2 1.0\n",
			wantSub: "truncated",
		},
		"trailing entries": {
			in:      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
			wantSub: "trailing",
		},
		"row index zero": {
			in:      "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
			wantSub: "out of bounds",
		},
		"row index past rows": {
			in:      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
			wantSub: "out of bounds",
		},
		"col index past cols": {
			in:      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5 1.0\n",
			wantSub: "out of bounds",
		},
		"negative size": {
			in:      "%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1.0\n",
			wantSub: "negative",
		},
		"truncated entry line": {
			in:      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2\n",
			wantSub: "short entry",
		},
	}
	for name, tc := range cases {
		_, err := ReadMatrix(strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%s: error not reported", name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, tc.wantSub)
		}
	}
}

func TestErrorCases(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad banner":   "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
		"array format": "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"bad field":    "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n",
		"no size":      "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"bad size":     "%%MatrixMarket matrix coordinate real general\n1 1\n",
		"oob index":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"short entry":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"wrong count":  "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n",
		"bad value":    "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 xyz\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrix(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: error not reported", name)
		}
	}
	// Graph requires square.
	rect := "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"
	if _, err := ReadGraph(strings.NewReader(rect)); err == nil {
		t.Fatal("non-square graph accepted")
	}
}

func TestIntegerField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 3
2 2 -4
`
	m, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Val[0] != 3 || m.Val[1] != -4 {
		t.Fatalf("integer values wrong: %v", m.Val)
	}
}

func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	// Robustness: arbitrary byte soup must produce an error, not a panic.
	inputs := []string{
		"\x00\x01\x02",
		"%%MatrixMarket matrix coordinate real general",
		"%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e99999\n",
		"%%MatrixMarket\n",
		strings.Repeat("%comment\n", 100),
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 2.0\n",
	}
	for i, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("input %d panicked: %v", i, r)
				}
			}()
			ReadMatrix(strings.NewReader(in))
			ReadGraph(strings.NewReader(in))
		}()
	}
}

func TestBigValueParsing(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -3.14159e-300\n"
	m, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Val[0] != -3.14159e-300 {
		t.Fatalf("value %g", m.Val[0])
	}
}

func TestWriteGraphEmpty(t *testing.T) {
	var buf bytes.Buffer
	g := gen.Laplace2D(1, 1)
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 1 || h.NumEdges() != 0 {
		t.Fatal("empty graph round trip wrong")
	}
}

// WriteGraph writes g in coordinate pattern symmetric format (each
// undirected edge once, lower triangle): the round-trip partner of
// ReadGraph in these tests.
func WriteGraph(w io.Writer, g *graph.CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate pattern symmetric")
	edges := 0
	for v := int32(0); int(v) < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u < v {
				edges++
			}
		}
	}
	fmt.Fprintf(bw, "%d %d %d\n", g.N, g.N, edges)
	for v := int32(0); int(v) < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u < v {
				fmt.Fprintf(bw, "%d %d\n", v+1, u+1)
			}
		}
	}
	return bw.Flush()
}
