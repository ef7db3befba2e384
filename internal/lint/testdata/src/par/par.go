// Package par models the repo's parallel runtime for hotalloc
// fixtures: closures handed directly to it are the sanctioned
// participant idiom and are exempt from the closure check.
package par

// Runtime mirrors the method-call form rt.For(n, body).
type Runtime struct{}

// For runs body over [0, n).
func (r *Runtime) For(n int, body func(lo, hi int)) { body(0, n) }

// ForWith mirrors the generic free-function form with setup/teardown
// closures.
func ForWith[S any](r *Runtime, n int, setup func() S, body func(lo, hi int, s S), teardown func(S)) {
	s := setup()
	body(0, n, s)
	if teardown != nil {
		teardown(s)
	}
}
