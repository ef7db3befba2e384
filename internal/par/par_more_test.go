package par

import (
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForBlocksCoversAllBlocks(t *testing.T) {
	for _, w := range workerCounts() {
		rt := New(w)
		for _, nb := range []int{0, 1, 2, 24, 100} {
			hits := make([]int32, nb)
			rt.ForBlocks(nb, func(b int) { atomic.AddInt32(&hits[b], 1) })
			for b, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d nb=%d: block %d hit %d times", w, nb, b, h)
				}
			}
		}
	}
}

func TestForBlocksWithBlocksPartition(t *testing.T) {
	rt := New(8)
	n := 100000
	blocks := rt.Blocks(n)
	nb := len(blocks) - 1
	covered := make([]int32, n)
	rt.ForBlocks(nb, func(b int) {
		for i := blocks[b]; i < blocks[b+1]; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestScanUnsigned(t *testing.T) {
	rt := New(8)
	n := 10000
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i % 5)
	}
	out := make([]uint32, n+1)
	total := ScanExclusive(rt, in, out)
	var want uint32
	for i := range in {
		if out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
		want += in[i]
	}
	if total != want || out[n] != want {
		t.Fatalf("total %d, want %d", total, want)
	}
}

func TestReduceSumNegativeAndOverflowSafe(t *testing.T) {
	rt := New(4)
	n := 100000
	got := ReduceSum[int64](rt, n, func(i int) int64 { return int64(i) - int64(n)/2 })
	var want int64
	for i := 0; i < n; i++ {
		want += int64(i) - int64(n)/2
	}
	if got != want {
		t.Fatalf("sum %d, want %d", got, want)
	}
}

func TestDeterminismOfFilterAcrossWorkerCountsProperty(t *testing.T) {
	f := func(data []uint32) bool {
		src := make([]int32, len(data))
		for i, v := range data {
			src[i] = int32(v)
		}
		keep := func(v int32) bool { return v&1 == 0 }
		ref := compact(New(1), append([]int32(nil), src...), keep)
		for _, w := range []int{2, 5, 13} {
			if !slices.Equal(compact(New(w), append([]int32(nil), src...), keep), ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksRespectMinGrain(t *testing.T) {
	rt := New(16)
	// With n barely above minGrain, blocks must not be tiny.
	b := rt.Blocks(600)
	if len(b)-1 > 2 {
		t.Fatalf("600 items split into %d blocks; grain too small", len(b)-1)
	}
}

func TestForSerialFallbackSmallN(t *testing.T) {
	rt := New(16)
	order := make([]int, 0, 100)
	// n <= minGrain runs in-place serially: body sees one contiguous range.
	rt.For(100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			order = append(order, i) // safe only if serial
		}
	})
	if len(order) != 100 {
		t.Fatalf("got %d entries", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatal("serial fallback not in order")
		}
	}
}
