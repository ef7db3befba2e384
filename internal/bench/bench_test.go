package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a config that exercises every code path fast.
func tiny(buf *bytes.Buffer) Config {
	return Config{Out: buf, Scale: 0.001, Trials: 1}
}

func countLines(s string) int { return strings.Count(s, "\n") }

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table1(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Xor*") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if countLines(out) < 19 { // title + header + 17 rows
		t.Fatalf("too few rows:\n%s", out)
	}
}

func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table2(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "af_shell7") {
		t.Fatalf("missing content:\n%s", out)
	}
	if countLines(out) < 19 {
		t.Fatalf("too few rows:\n%s", out)
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table3(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "Elasticity 30x30x30") || !strings.Contains(out, "Laplace 100x100x100") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestTable4Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table4(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "ViennaCL") {
		t.Fatalf("missing header:\n%s", out)
	}
	// Sizes of the three implementations must be within 30% of each
	// other on every matrix (the paper's "similar quality" claim).
	for _, line := range strings.Split(out, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		var kk, cu, vi int
		if _, err := fmtSscan(f[1], &kk); err != nil {
			continue
		}
		fmtSscan(f[2], &cu)
		fmtSscan(f[3], &vi)
		lo, hi := kk, kk
		for _, v := range []int{cu, vi} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		// The "similar quality" claim is asymptotic; tiny instances are
		// noisy, so only enforce it for meaningfully sized sets.
		if lo > 100 && float64(hi)/float64(lo) > 1.3 {
			t.Fatalf("implementation sizes diverge: %s", line)
		}
	}
}

func TestTable5Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table5(tiny(&buf))
	out := buf.String()
	for _, want := range []string{"Serial Agg", "Serial D2C", "NB D2C", "MIS2 Basic", "MIS2 Agg"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing scheme %q:\n%s", want, out)
		}
	}
}

func TestTable6Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table6(tiny(&buf))
	out := buf.String()
	for _, want := range []string{"bodyy5", "Serena", "Laplace3D_100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing matrix %q:\n%s", want, out)
		}
	}
}

func TestFig2Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig2(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "Worklists") {
		t.Fatalf("missing content:\n%s", out)
	}
}

func TestFig3Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig3(tiny(&buf))
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("missing header")
	}
}

func TestFig4Fig5Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig4(tiny(&buf))
	Fig5(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 5") {
		t.Fatal("missing headers")
	}
}

func TestFig6Fig7Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig6(tiny(&buf))
	Fig7(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "Figure 7") {
		t.Fatal("missing headers")
	}
	if !strings.Contains(out, "geomean") {
		t.Fatal("missing geomean rows")
	}
}

func TestQualitySummarySmoke(t *testing.T) {
	var buf bytes.Buffer
	QualitySummary(tiny(&buf))
	if !strings.Contains(buf.String(), "mean size") {
		t.Fatal("missing header")
	}
}

func TestFig1Trace(t *testing.T) {
	var buf bytes.Buffer
	Fig1(tiny(&buf))
	out := buf.String()
	for _, want := range []string{"Refresh Row", "Refresh Column", "Decide Set", "MIS-2 =", "verified"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "INVALID") {
		t.Fatalf("trace produced invalid set:\n%s", out)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geomean(2,8) = %f", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("geomean(nil) != 0")
	}
}

func TestThreadConfigs(t *testing.T) {
	cfg := threadConfigs()
	if len(cfg) == 0 || cfg[0] != 1 {
		t.Fatalf("bad configs %v", cfg)
	}
	for i := 1; i < len(cfg); i++ {
		if cfg[i] <= cfg[i-1] {
			t.Fatalf("configs not increasing: %v", cfg)
		}
	}
}

// fmtSscan is a tiny wrapper so the Table4 parser reads naturally.
func fmtSscan(s string, v *int) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errNotNumber
		}
		n = n*10 + int(c-'0')
	}
	*v = n
	return 1, nil
}

var errNotNumber = errorString("not a number")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestBigScalingSmoke(t *testing.T) {
	var buf bytes.Buffer
	BigScaling(Config{Out: &buf, Scale: 0.0002, Trials: 1})
	out := buf.String()
	if !strings.Contains(out, "Strong scaling") || !strings.Contains(out, "efficiency") {
		t.Fatalf("missing header:\n%s", out)
	}
}

func TestSmoothersSmoke(t *testing.T) {
	var buf bytes.Buffer
	Smoothers(tiny(&buf))
	out := buf.String()
	for _, want := range []string{"Jacobi", "Point SGS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing smoother %q:\n%s", want, out)
		}
	}
}

func TestPartitionComparisonSmoke(t *testing.T) {
	var buf bytes.Buffer
	PartitionComparison(tiny(&buf))
	out := buf.String()
	if !strings.Contains(out, "MIS2 cut") || !strings.Contains(out, "geomean") {
		t.Fatalf("missing headers:\n%s", out)
	}
}
