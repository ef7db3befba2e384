package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// solveLine runs the command and returns its solve line without the
// trailing wall-clock time, e.g. "17 CG iterations, relres 1.79e-13,
// xsum 3.424017e+06".
func solveLine(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("amgsolve %v: exit %d\n%s", args, code, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "solve: "); ok {
			if i := strings.LastIndex(rest, ", "); i >= 0 {
				return rest[:i]
			}
		}
	}
	t.Fatalf("amgsolve %v: no solve line in\n%s", args, out.String())
	return ""
}

// TestSolveLineAcrossThreads pins the -n 40 solve at every worker
// count: the hierarchy is deterministic for any worker count, so all
// three runs print the same iterations, residual and solution sum.
func TestSolveLineAcrossThreads(t *testing.T) {
	const want = "17 CG iterations, relres 1.79e-13, xsum 3.424017e+06"
	for _, threads := range []int{1, 2, 8} {
		got := solveLine(t, "-n", "40", "-threads", fmt.Sprint(threads))
		if got != want {
			t.Errorf("-threads %d: solve %q, want %q", threads, got, want)
		}
	}
}

// TestRCMResetupSameAcrossThreads checks the reordered path with
// numeric re-setup prints the same solve at 1 and 8 workers.
func TestRCMResetupSameAcrossThreads(t *testing.T) {
	one := solveLine(t, "-n", "40", "-rcm", "-resetup", "2", "-threads", "1")
	eight := solveLine(t, "-n", "40", "-rcm", "-resetup", "2", "-threads", "8")
	if one != eight {
		t.Errorf("-rcm -resetup 2: 1 worker %q, 8 workers %q", one, eight)
	}
}

func TestGridSideBelowOneIsUsageError(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		var out bytes.Buffer
		if code := run([]string{"-n", n}, &out); code != 2 {
			t.Errorf("-n %s: exit %d, want 2", n, code)
		}
		if out.Len() != 0 {
			t.Errorf("-n %s: printed %q before rejecting", n, out.String())
		}
	}
}
