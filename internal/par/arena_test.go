package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestArenaGetPutReuse(t *testing.T) {
	a := &Arena{}
	s1 := Get[float64](a, 100)
	if len(s1) != 100 {
		t.Fatalf("len = %d, want 100", len(s1))
	}
	p1 := uintptr(unsafe.Pointer(unsafe.SliceData(s1)))
	Put(a, s1)
	s2 := Get[float64](a, 100)
	p2 := uintptr(unsafe.Pointer(unsafe.SliceData(s2)))
	if p1 != p2 {
		t.Fatalf("second Get did not reuse the buffer: %x vs %x", p1, p2)
	}
	// A differently-typed request of equal byte size also reuses.
	Put(a, s2)
	s3 := Get[uint64](a, 100)
	p3 := uintptr(unsafe.Pointer(unsafe.SliceData(s3)))
	if p1 != p3 {
		t.Fatalf("cross-type Get did not reuse the buffer")
	}
}

func TestArenaOddSizedInt32RoundTrips(t *testing.T) {
	a := &Arena{}
	// Odd element counts must not shrink the buffer across cycles.
	s := Get[int32](a, 101)
	p1 := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	Put(a, s)
	s = Get[int32](a, 101)
	p2 := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	if p1 != p2 {
		t.Fatalf("odd-sized buffer was not reused")
	}
	Put(a, s)
}

func TestArenaTightestFit(t *testing.T) {
	a := &Arena{}
	big := Get[uint64](a, 1000)
	small := Get[uint64](a, 10)
	pSmall := uintptr(unsafe.Pointer(unsafe.SliceData(small)))
	Put(a, big)
	Put(a, small)
	got := Get[uint64](a, 8)
	if uintptr(unsafe.Pointer(unsafe.SliceData(got))) != pSmall {
		t.Fatalf("Get(8) should reuse the 10-word buffer, not the 1000-word one")
	}
}

func TestArenaBucketRoundingServesNearMissSizes(t *testing.T) {
	a := &Arena{}
	// A returned buffer must serve slightly larger follow-up requests in
	// the same bucket: n, n+1, and n*k block scratch for small factors.
	s1 := Get[int](a, 100) // bucket: 128 words
	p1 := uintptr(unsafe.Pointer(unsafe.SliceData(s1)))
	Put(a, s1)
	s2 := Get[int](a, 101)
	if uintptr(unsafe.Pointer(unsafe.SliceData(s2))) != p1 {
		t.Fatal("n+1 request did not reuse the bucket-rounded buffer")
	}
	Put(a, s2)
	s3 := Get[int](a, 128)
	if uintptr(unsafe.Pointer(unsafe.SliceData(s3))) != p1 {
		t.Fatal("bucket-boundary request did not reuse the buffer")
	}
	Put(a, s3)
	// Large requests round to 4096-word multiples, not powers of two.
	big := Get[uint64](a, 5000)
	if cap(big) != 8192 {
		t.Fatalf("cap = %d, want 8192 (two 4096-word buckets)", cap(big))
	}
	Put(a, big)
}

func TestArenaZeroAllocSteadyState(t *testing.T) {
	a := &Arena{}
	Put(a, Get[float64](a, 512)) // warm up
	allocs := testing.AllocsPerRun(50, func() {
		s := Get[float64](a, 512)
		s[0] = 1
		Put(a, s)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put: %v allocs, want 0", allocs)
	}
}

// TestForBlockScratch runs the one scratch idiom: every block of a For
// borrows an arena, takes its scratch from it, and returns both before
// it ends.
func TestForBlockScratch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := New(workers)
		n := 10000
		out := make([]int64, n)
		var visited atomic.Int64
		r.For(n, func(lo, hi int) {
			a := AcquireArena()
			s := GetZeroed[int64](a, 1)
			for i := lo; i < hi; i++ {
				out[i] = int64(i) * 2
				s[0]++
			}
			visited.Add(s[0])
			Put(a, s)
			ReleaseArena(a)
		})
		for i := range out {
			if out[i] != int64(i)*2 {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, out[i])
			}
		}
		if v := visited.Load(); v != int64(n) {
			t.Fatalf("workers=%d: blocks saw %d items, want %d", workers, v, n)
		}
	}
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	// Many goroutines using independent Runtimes concurrently must not
	// interfere (shared pool, disjoint tasks).
	var wg sync.WaitGroup
	for gor := 0; gor < 8; gor++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := New(4)
			n := 5000
			out := make([]int, n)
			for rep := 0; rep < 20; rep++ {
				r.For(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = i + seed
					}
				})
				for i := range out {
					if out[i] != i+seed {
						t.Errorf("corrupted result at %d", i)
						return
					}
				}
			}
		}(gor)
	}
	wg.Wait()
}

func TestNestedFor(t *testing.T) {
	r := New(4)
	outer := 4000
	inner := 2000
	sums := make([]int64, outer)
	r.For(outer, func(lo, hi int) {
		inRT := New(2)
		for i := lo; i < hi; i++ {
			sums[i] = ReduceSum(inRT, inner, func(j int) int64 { return int64(j) })
		}
	})
	want := int64(inner) * int64(inner-1) / 2
	for i, s := range sums {
		if s != want {
			t.Fatalf("sums[%d] = %d, want %d", i, s, want)
		}
	}
}
