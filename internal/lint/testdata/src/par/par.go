// Package par models the repo's parallel runtime for hotalloc
// fixtures: closures handed directly to it are the sanctioned
// parallelism idiom and are exempt from the closure check.
package par

// Runtime mirrors the method-call form rt.For(n, body).
type Runtime struct{}

// For runs body over [0, n).
func (r *Runtime) For(n int, body func(lo, hi int)) { body(0, n) }

// ReduceSum mirrors the generic free-function form.
func ReduceSum[T ~int | ~int64](r *Runtime, n int, f func(i int) T) T {
	var s T
	for i := 0; i < n; i++ {
		s += f(i)
	}
	return s
}
