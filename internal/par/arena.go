package par

import (
	"sync"
	"unsafe"
)

// Arena is a scratch allocator for the hot paths: a small free list of
// word-granular buffers that Get carves typed slices from and Put
// returns. Buffers are uninitialized on Get (callers stamp or overwrite
// them), so steady-state parallel kernels allocate nothing.
//
// An Arena is not safe for concurrent use. A call, or one block of a
// parallel construct, borrows one with AcquireArena, returns every
// buffer it took with Put, and gives the arena back with ReleaseArena.
type Arena struct {
	free [][]uint64
}

// arenas recycles Arenas between borrowers.
var arenas = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena borrows a scratch arena from the process-wide pool.
// Pair with ReleaseArena; buffers obtained with Get and returned with
// Put are recycled across acquisitions.
func AcquireArena() *Arena { return arenas.Get().(*Arena) }

// ReleaseArena returns an arena obtained from AcquireArena to the pool.
func ReleaseArena(a *Arena) { arenas.Put(a) }

// maxArenaBuffers bounds the free list; returning a buffer to a full
// list drops the smallest buffer instead.
const maxArenaBuffers = 16

// Elem constrains arena-managed element types to pointer-free scalars,
// so reinterpreting the word-granular backing store is safe.
type Elem interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Get returns an uninitialized scratch slice of length n, reusing the
// smallest adequate free buffer. The contents are arbitrary — callers
// must initialize or stamp every element they read. The slice's
// capacity spans the entire backing buffer, so Put can return it
// without shrinking the buffer (element sizes divide the 8-byte word,
// making the round-trip exact).
func Get[T Elem](a *Arena, n int) []T {
	if n <= 0 {
		return nil
	}
	var z T
	size := int(unsafe.Sizeof(z))
	words := (n*size + 7) / 8
	buf := a.take(words)
	full := cap(buf) * 8 / size
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(buf))), full)[:n]
}

// Put returns a slice obtained from Get to the arena. Only slices from
// Get may be passed (their backing store is word-granular and -aligned,
// and their capacity spans it exactly); the caller must not use s (or
// any alias of it) afterwards.
func Put[T Elem](a *Arena, s []T) {
	if cap(s) == 0 {
		return
	}
	var z T
	s = s[:cap(s)]
	words := len(s) * int(unsafe.Sizeof(z)) / 8
	if words == 0 {
		return
	}
	buf := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), words)
	a.put(buf)
}

// GetZeroed is Get followed by clearing to the zero value.
func GetZeroed[T Elem](a *Arena, n int) []T {
	s := Get[T](a, n)
	clear(s)
	return s
}

// roundWords rounds a fresh allocation up to a size bucket: the next
// power of two up to 4096 words (32 KiB), then the next multiple of
// 4096. Hot-path scratch requests arrive in near-miss sizes — n row
// counters, n+1 offsets, n*k multi-RHS block scratch for small k — and
// bucketing lets one retained buffer serve the whole family instead of
// thrashing the free list with exact-fit allocations (at most one
// bucket step, 1/8 of the largest request, of overhead).
func roundWords(words int) int {
	if words >= 4096 {
		return (words + 4095) &^ 4095
	}
	b := 64
	for b < words {
		b <<= 1
	}
	return b
}

// take removes and returns a free buffer with capacity >= words,
// preferring the tightest fit, or allocates a fresh bucket-rounded one.
func (a *Arena) take(words int) []uint64 {
	best := -1
	for k, b := range a.free {
		if cap(b) >= words && (best < 0 || cap(b) < cap(a.free[best])) {
			best = k
		}
	}
	if best < 0 {
		return make([]uint64, roundWords(words))[:words]
	}
	b := a.free[best]
	last := len(a.free) - 1
	a.free[best] = a.free[last]
	a.free[last] = nil
	a.free = a.free[:last]
	return b[:words]
}

// put adds buf to the free list, evicting the smallest buffer when full.
func (a *Arena) put(buf []uint64) {
	if len(a.free) < maxArenaBuffers {
		a.free = append(a.free, buf)
		return
	}
	smallest := 0
	for k := 1; k < len(a.free); k++ {
		if cap(a.free[k]) < cap(a.free[smallest]) {
			smallest = k
		}
	}
	if cap(a.free[smallest]) < cap(buf) {
		a.free[smallest] = buf
	}
}
