package lint_test

import (
	"testing"

	"mis2go/internal/lint"
	"mis2go/internal/lint/linttest"
)

// Each analyzer is pinned by a fixture package whose `// want` comments
// must all fire (the fixture fails without the analyzer) and whose
// clean forms must stay silent (any extra diagnostic fails the test).

func TestHotAllocFixtures(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "hotalloc")
}

func TestDetOrderFixtures(t *testing.T) {
	linttest.Run(t, lint.DetOrder, "detorder", "detorderplain")
}

func TestCtxPollFixtures(t *testing.T) {
	linttest.Run(t, lint.CtxPoll, "ctxpoll")
}

func TestSentinelIsFixtures(t *testing.T) {
	linttest.Run(t, lint.SentinelIs, "sentinelis")
}

func TestAtomicFieldFixtures(t *testing.T) {
	linttest.Run(t, lint.AtomicField, "atomicfield")
}

func TestNilDerefFixtures(t *testing.T) {
	linttest.Run(t, lint.NilDeref, "nilderef")
}

// TestAnalyzerRegistry pins the advertised analyzer set: the Makefile
// and DESIGN.md document five repo-contract analyzers plus the nilness
// stand-in.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"hotalloc", "detorder", "ctxpoll", "sentinelis", "atomicfield", "nilderef"}
	got := lint.All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}
