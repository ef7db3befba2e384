package par

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func workerCounts() []int { return []int{1, 2, 3, 7, 16} }

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, w := range workerCounts() {
		rt := New(w)
		for _, n := range []int{0, 1, 5, 511, 512, 513, 10000} {
			hits := make([]int32, n)
			rt.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, w := range workerCounts() {
		rt := New(w)
		for _, n := range []int{0, 1, 100, 512, 513, 99999} {
			b := rt.Blocks(n)
			if b[0] != 0 || b[len(b)-1] != n {
				t.Fatalf("workers=%d n=%d: bad boundaries %v", w, n, b)
			}
			for i := 1; i < len(b); i++ {
				if b[i] < b[i-1] {
					t.Fatalf("workers=%d n=%d: non-monotone blocks %v", w, n, b)
				}
			}
		}
	}
}

func TestNewDefaultsWorkers(t *testing.T) {
	if New(0).Workers() <= 0 {
		t.Fatal("New(0) must default to a positive worker count")
	}
	if New(-3).Workers() <= 0 {
		t.Fatal("New(-3) must default to a positive worker count")
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("Workers() = %d, want 5", got)
	}
}

func TestReduceSumMatchesSerial(t *testing.T) {
	f := func(data []int32) bool {
		var want int64
		for _, v := range data {
			want += int64(v)
		}
		for _, w := range workerCounts() {
			rt := New(w)
			got := ReduceSum[int64](rt, len(data), func(i int) int64 { return int64(data[i]) })
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func scanSerial(in []int64) ([]int64, int64) {
	out := make([]int64, len(in))
	var run int64
	for i, v := range in {
		out[i] = run
		run += v
	}
	return out, run
}

func TestScanExclusiveMatchesSerial(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		wantOut, wantTotal := scanSerial(in)
		for _, w := range workerCounts() {
			rt := New(w)
			out := make([]int64, len(in)+1)
			total := ScanExclusive(rt, in, out)
			if total != wantTotal || out[len(in)] != wantTotal {
				return false
			}
			for i := range wantOut {
				if out[i] != wantOut[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScanExclusiveLarge(t *testing.T) {
	n := 100000
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i % 7)
	}
	wantOut, wantTotal := scanSerial(in)
	rt := New(16)
	out := make([]int64, n)
	total := ScanExclusive(rt, in, out)
	if total != wantTotal {
		t.Fatalf("total %d want %d", total, wantTotal)
	}
	for i := range out {
		if out[i] != wantOut[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], wantOut[i])
		}
	}
}

func TestScanExclusiveInPlace(t *testing.T) {
	n := 10000
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i%13) - 5
	}
	wantOut, wantTotal := scanSerial(in)
	rt := New(8)
	total := ScanExclusive(rt, in, in) // aliased
	if total != wantTotal {
		t.Fatalf("total %d want %d", total, wantTotal)
	}
	for i := range in {
		if in[i] != wantOut[i] {
			t.Fatalf("in-place out[%d] = %d, want %d", i, in[i], wantOut[i])
		}
	}
}

func TestScanExclusiveEmpty(t *testing.T) {
	rt := New(4)
	if got := ScanExclusive(rt, nil, []int64{99}); got != 0 {
		t.Fatalf("empty scan total = %d", got)
	}
}

// compact is the in-place compaction JoinSegments finishes, as the MIS
// and coloring passes run it: one ForBlocks block per range of
// rt.Blocks(len(wl)), each writing the elements keep accepts, in order,
// to the front of its own range.
func compact(rt *Runtime, wl []int32, keep func(int32) bool) []int32 {
	blocks := rt.Blocks(len(wl))
	kept := make([]int, len(blocks)-1)
	rt.ForBlocks(len(blocks)-1, func(b int) {
		k := blocks[b]
		for i := blocks[b]; i < blocks[b+1]; i++ {
			v := wl[i]
			wl[k] = v
			if keep(v) {
				k++
			}
		}
		kept[b] = k - blocks[b]
	})
	return JoinSegments(wl, blocks, kept)
}

func filterSerial(src []int32, keep func(int32) bool) []int32 {
	out := []int32{}
	for _, v := range src {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

func TestJoinSegmentsEmptyFullAndMixed(t *testing.T) {
	for _, c := range []struct {
		name   string
		wl     []int32
		blocks []int
		kept   []int
		want   []int32
	}{
		{"no items", []int32{}, []int{0, 0}, []int{0}, []int32{}},
		{"single block", []int32{4, 7, 9, 9, 9}, []int{0, 5}, []int{2}, []int32{4, 7}},
		{"single empty block", []int32{1, 2, 3}, []int{0, 3}, []int{0}, []int32{}},
		{"all full", []int32{1, 2, 3, 4}, []int{0, 2, 4}, []int{2, 2}, []int32{1, 2, 3, 4}},
		{
			// Segments: empty, full, one kept, two kept.
			"empty, full and mixed",
			[]int32{90, 91, 92, 3, 4, 5, 6, 96, 97, 7, 8, 98},
			[]int{0, 3, 6, 9, 12},
			[]int{0, 3, 1, 2},
			[]int32{3, 4, 5, 6, 7, 8},
		},
	} {
		if got := JoinSegments(c.wl, c.blocks, c.kept); !slices.Equal(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFilterMatchesSerial runs the in-place filter (compact, finished by
// JoinSegments) from n=0 to n=100000, across several minGrain blocks, at
// 1/2/8 workers under five predicates, and on arbitrary values at every
// worker count, against a serial in-order filter.
func TestFilterMatchesSerial(t *testing.T) {
	keeps := []struct {
		name string
		keep func(v int32, n int) bool
	}{
		{"none", func(int32, int) bool { return false }},
		{"all", func(int32, int) bool { return true }},
		{"every 17th", func(v int32, _ int) bool { return v%17 == 0 }},
		{"first third", func(v int32, n int) bool { return int(v) < n/3 }},
		{"hashed", func(v int32, _ int) bool { return uint32(v)*2654435761>>31 == 0 }},
	}
	for _, n := range []int{0, 1, minGrain - 1, minGrain + 1, 5*minGrain + 17, 100000} {
		src := make([]int32, n)
		for i := range src {
			src[i] = int32(i)
		}
		for _, k := range keeps {
			keep := func(v int32) bool { return k.keep(v, n) }
			want := filterSerial(src, keep)
			for _, w := range []int{1, 2, 8} {
				wl := append([]int32(nil), src...)
				if got := compact(New(w), wl, keep); !slices.Equal(got, want) {
					t.Fatalf("n=%d keep=%s workers=%d: kept %d, want %d", n, k.name, w, len(got), len(want))
				}
			}
		}
	}
	// Arbitrary values, not only ascending ids.
	f := func(data []uint16) bool {
		src := make([]int32, len(data))
		for i, v := range data {
			src[i] = int32(v)
		}
		keep := func(v int32) bool { return v%3 == 0 }
		want := filterSerial(src, keep)
		for _, w := range workerCounts() {
			if !slices.Equal(compact(New(w), append([]int32(nil), src...), keep), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterLargePreservesOrder(t *testing.T) {
	n := 200000
	wl := make([]int32, n)
	for i := range wl {
		wl[i] = int32(i)
	}
	got := compact(New(16), wl, func(v int32) bool { return v%17 == 0 })
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated at %d: %d then %d", i, got[i-1], got[i])
		}
	}
	if len(got) != (n+16)/17 {
		t.Fatalf("kept %d, want %d", len(got), (n+16)/17)
	}
}

// TestFirstErrorReportsLowestFailure: with bodies that return the first
// failing index of their range, FirstError returns the lowest failing
// index at every worker count, covers [0, n) exactly once when nothing
// fails, and returns nil then.
func TestFirstErrorReportsLowestFailure(t *testing.T) {
	for _, w := range workerCounts() {
		rt := New(w)
		for _, n := range []int{0, 1, 511, 512, 513, 10000} {
			hits := make([]int32, n)
			err := rt.FirstError(n, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", w, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
			for _, bad := range [][]int{{n - 1}, {n / 3, n - 1}, {0, n / 2, n - 1}} {
				if n == 0 {
					break
				}
				err := rt.FirstError(n, func(lo, hi int) error {
					for i := lo; i < hi; i++ {
						if slices.Contains(bad, i) {
							return fmt.Errorf("index %d", i)
						}
					}
					return nil
				})
				if want := fmt.Sprintf("index %d", bad[0]); err == nil || err.Error() != want {
					t.Fatalf("workers=%d n=%d bad=%v: %v, want %s", w, n, bad, err, want)
				}
			}
		}
	}
}
