package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestDenseOrderBound(t *testing.T) {
	if _, err := NewDense(MaxDenseN + 1); err == nil {
		t.Fatal("NewDense above MaxDenseN not rejected")
	} else if !strings.Contains(err.Error(), "MaxDenseN") {
		t.Fatalf("NewDense error not descriptive: %v", err)
	}
	if _, err := NewDense(-1); err == nil {
		t.Fatal("negative order not rejected")
	}
	// A hand-constructed oversized Dense must be rejected by Factorize
	// before any pivot work.
	d := &Dense{N: MaxDenseN + 1}
	if err := d.Factorize(); err == nil {
		t.Fatal("oversized Factorize not rejected")
	}
}

func TestDenseFillFromReuse(t *testing.T) {
	// a + 25*I is diagonally dominant, so the factorization exists.
	a := shiftDiagonal(randomMatrix(20, 20, 0.3, 50), 25)
	d, err := NewDense(a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDense(a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.FillFrom(a); err != nil {
		t.Fatal(err)
	}
	if err := want.Factorize(); err != nil {
		t.Fatal(err)
	}
	// Two fill+factorize rounds through the same storage must reproduce
	// a fresh factorization bitwise.
	for round := 0; round < 2; round++ {
		if err := d.FillFrom(a); err != nil {
			t.Fatal(err)
		}
		if err := d.Factorize(); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if d.Data[i] != want.Data[i] {
				t.Fatalf("round %d: factor entry %d = %v, want %v", round, i, d.Data[i], want.Data[i])
			}
		}
	}
	if err := d.FillFrom(randomMatrix(21, 21, 0.3, 51)); err == nil {
		t.Fatal("FillFrom with mismatched order not rejected")
	}
}

// refFactorize is the serial reference LU with partial pivoting: the
// indexed loops Factorize ran before it sliced rows. Factorize must
// produce the same factors and pivots bit for bit.
func refFactorize(d *Dense) error {
	n := d.N
	d.piv = make([]int, n)
	for k := 0; k < n; k++ {
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

// refSolve is the serial reference of Solve's indexed loops.
func refSolve(d *Dense, b, x []float64) {
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

// denseLUCases returns random SPD matrices (B^T B + I) and random
// nonsymmetric ones with a weak diagonal, which make partial pivoting
// swap rows, in dense row-major form.
func denseLUCases() map[string]*Dense {
	rng := rand.New(rand.NewSource(46))
	cases := map[string]*Dense{}
	for _, n := range []int{1, 2, 7, 64, 153} {
		b := make([]float64, n*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		spd := &Dense{N: n, Data: make([]float64, n*n)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += b[k*n+i] * b[k*n+j]
				}
				spd.Data[i*n+j] = s
			}
			spd.Data[i*n+i]++
		}
		cases[fmt.Sprintf("spd%d", n)] = spd
		pivot := &Dense{N: n, Data: make([]float64, n*n)}
		for i := range pivot.Data {
			pivot.Data[i] = rng.NormFloat64()
			if i%(n+1) == 0 {
				pivot.Data[i] *= 1e-3
			}
		}
		// Exact zeros below a pivot take Factorize's l == 0 branch.
		if n > 2 {
			pivot.Data[(n-1)*n] = 0
		}
		cases[fmt.Sprintf("pivoting%d", n)] = pivot
	}
	return cases
}

// TestDenseLUBitwiseMatchesReference: Factorize's factors and pivots
// and Solve's solutions equal the serial reference's bit for bit, on
// SPD matrices and on nonsymmetric ones that pivot.
func TestDenseLUBitwiseMatchesReference(t *testing.T) {
	for name, d := range denseLUCases() {
		want := &Dense{N: d.N, Data: slices.Clone(d.Data)}
		if err := refFactorize(want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Factorize(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bitsEqual(t, name+"/factors", d.Data, want.Data)
		if !slices.Equal(d.piv, want.piv) {
			t.Fatalf("%s: pivots %v, want %v", name, d.piv, want.piv)
		}
		swapped := false
		for k, p := range want.piv {
			swapped = swapped || p != k
		}
		if strings.HasPrefix(name, "pivoting") && d.N > 2 && !swapped {
			t.Fatalf("%s: no row swap, the case does not exercise pivoting", name)
		}
		b := make([]float64, d.N)
		for i := range b {
			b[i] = float64(i%7) - 3.25
		}
		x, xWant := make([]float64, d.N), make([]float64, d.N)
		d.Solve(b, x)
		refSolve(want, b, xWant)
		bitsEqual(t, name+"/solution", x, xWant)
	}
}
