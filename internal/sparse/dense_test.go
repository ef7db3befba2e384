package sparse

import (
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
