// Package hotalloc exercises the hotalloc analyzer: //amg:hotpath
// bodies must be free of allocation constructs.
package hotalloc

import (
	"fmt"

	"par"
)

// badKernel piles up every flagged construct.
//
//amg:hotpath
func badKernel(n int) []float64 {
	s := make([]float64, n) // want `calls make`
	s = append(s, 1)        // want `calls append`
	p := new(float64)       // want `calls new`
	_ = p
	f := func() int { return n } // want `creates a closure`
	_ = f()
	m := map[int]int{0: 1} // want `allocates a map literal`
	_ = m
	sl := []int{1, 2} // want `allocates a slice literal`
	_ = sl
	pt := &point{1, 2} // want `address of a composite literal`
	_ = pt
	return s
}

type point struct{ x, y int }

// goodKernel is the clean form: index loops, arithmetic, fixed-size
// array literals, struct value literals, numeric conversions.
//
//amg:hotpath
func goodKernel(x, y []float64) float64 {
	var acc [4]float64
	for i := range x {
		acc[i%4] += x[i] * y[i]
	}
	p := point{1, 2} // struct value literal: a stack value, fine
	return acc[0] + acc[1] + acc[2] + float64(int32(acc[3])) + float64(p.x)
}

// Kernel proves annotations are matched on methods, not just free
// functions.
type Kernel struct{ vals []float64 }

// Row is a clean annotated method.
//
//amg:hotpath
func (k *Kernel) Row(lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += k.vals[i]
	}
	return s
}

// Grow is a dirty annotated method.
//
//amg:hotpath
func (k *Kernel) Grow(v float64) {
	k.vals = append(k.vals, v) // want `calls append`
}

// unannotated allocates freely without findings.
func unannotated(n int) []float64 {
	return append(make([]float64, 0, n), 1)
}

// driver shows the par exemption: closures handed to the runtime are
// allowed, but their bodies are still checked.
//
//amg:hotpath
func driver(rt *par.Runtime, n int, x, y []float64) {
	rt.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = 2 * x[i]
		}
	})
}

// explicitDriver instantiates the par runtime explicitly: the closure
// is exempt exactly as in the inferred form, and its body is checked.
//
//amg:hotpath
func explicitDriver(rt *par.Runtime, n int, y []float64) int {
	return par.ReduceSum[int](rt, n, func(i int) int {
		_ = make([]float64, 1) // want `calls make`
		return int(y[i])
	})
}

// genericKernel boxes a type-parameter value into an interface
// parameter: at run time V is a concrete float, so the call allocates.
// Passing V on to a parameter of type V boxes nothing.
//
//amg:hotpath
func genericKernel[V float32 | float64](x []V) V {
	box(x[0]) // want `boxes V into interface any`
	return same(x[1])
}

func same[V float32 | float64](v V) V { return v }

// spills exercises the remaining classes: goroutines, defers, string
// conversions, fmt, variadic calls, and interface boxing.
//
//amg:hotpath
func spills(b []byte, v int) string {
	go sink(v)       // want `starts a goroutine`
	defer sink(v)    // want `defers`
	fmt.Println(v)   // want `calls into fmt`
	variadic(1, 2)   // want `variadic call`
	box(v)           // want `boxes int into interface`
	box(nil)         // untyped nil boxes nothing
	return string(b) // want `allocating string conversion`
}

func sink(int)                    {}
func variadic(...float64) float64 { return 0 }
func box(any)                     {}
