// Package umheap implements Doppio's unmanaged heap (§5.2): a
// straightforward first-fit memory allocator operating on an array of
// 32-bit signed integers, with all data stored little-endian.
//
// JavaScript only supports bit operations on signed 32-bit integers,
// which is why each array element represents exactly 32 bits of data.
// Where typed arrays are available the heap is backed by a real int32
// array; elsewhere it falls back to a plain array of numbers, as the
// paper describes. Data written to and read from the heap is copied
// and encoded/decoded, never aliased (§5.2, "data stored to and read
// from DOPPIO's heap are actually copied").
package umheap

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"doppio/internal/jlong"
)

// align is the allocation granularity; 8 keeps doubles aligned.
const align = 8

type block struct{ addr, size int }

// Heap is a first-fit unmanaged heap. Address 0 is reserved as NULL.
// Its words live in a typed Int32Array (i32) or, without typed arrays,
// a plain array of numbers (f64), allocated by the first load or store.
type Heap struct {
	size  int // capacity in bytes, a multiple of 4
	typed bool
	i32   []int32
	f64   []float64

	// onTypedAlloc observes the typed array when the first access
	// allocates it (the Safari leak model); nil when unobserved.
	onTypedAlloc func(int)

	free   []block     // sorted by address, coalesced
	allocs map[int]int // addr → size

	// allocHook, when set, observes every successful Malloc with the
	// rounded byte size. The heap has no guest-stack context of its
	// own; VMs install a closure that walks their frames (the guest
	// allocation profile). Nil when profiling is off.
	allocHook func(n int)
}

// SetAllocHook installs (or, with nil, removes) the allocation
// observer. The hook runs inline on the allocating goroutine.
func (h *Heap) SetAllocHook(hook func(n int)) { h.allocHook = hook }

// New creates a heap of size bytes (rounded up to a word multiple),
// backed by a typed array when typed is true. onTypedAlloc, if non-nil,
// observes the typed array when the first access allocates it (for
// the Safari leak model).
func New(size int, typed bool, onTypedAlloc func(int)) *Heap {
	if size < align*2 {
		size = align * 2
	}
	size = (size + 3) &^ 3
	// Address 0 is NULL; the arena starts at the first aligned slot.
	return &Heap{size: size, typed: typed, onTypedAlloc: onTypedAlloc,
		free: []block{{addr: align, size: size - align}}, allocs: make(map[int]int)}
}

// Size returns the heap capacity in bytes.
func (h *Heap) Size() int { return h.size }

// Touched reports whether a load or store has allocated the array.
func (h *Heap) Touched() bool { return h.i32 != nil || h.f64 != nil }

// word returns word i, allocating the backing array on first touch;
// the caller has checked that i is in range.
func (h *Heap) word(i int) int32 {
	switch {
	case h.i32 != nil:
		return h.i32[i]
	case h.f64 != nil:
		return int32(h.f64[i])
	case h.typed:
		h.i32 = make([]int32, h.size/4)
		if h.onTypedAlloc != nil {
			h.onTypedAlloc(h.size)
		}
	default:
		h.f64 = make([]float64, h.size/4)
	}
	return 0 // a fresh array reads zero
}

// setWord writes word i, allocating the backing array on first touch;
// the caller has checked that i is in range.
func (h *Heap) setWord(i int, v int32) {
	if h.word(i); h.i32 != nil {
		h.i32[i] = v
	} else {
		h.f64[i] = float64(v)
	}
}

// Clone returns a deep copy of the heap — same contents, same free
// list, same allocation map — over fresh backing storage, so writes
// through the copy are invisible to the original. This is the address
// space duplication behind the process layer's fork: the child VM
// resumes on a byte-identical image. onTypedAlloc, if non-nil,
// observes the copy's typed array as New's would be observed: now if
// the original's array exists, at first touch otherwise.
func (h *Heap) Clone(onTypedAlloc func(int)) *Heap {
	c := &Heap{size: h.size, typed: h.typed, i32: slices.Clone(h.i32), f64: slices.Clone(h.f64),
		onTypedAlloc: onTypedAlloc, free: slices.Clone(h.free), allocs: maps.Clone(h.allocs)}
	if c.i32 != nil && onTypedAlloc != nil {
		onTypedAlloc(c.size)
	}
	return c
}

// ErrOOM reports allocation failure.
var ErrOOM = fmt.Errorf("umheap: out of memory")

// ErrBadFree reports a Free of an address that was never allocated.
type ErrBadFree int

func (e ErrBadFree) Error() string { return fmt.Sprintf("umheap: invalid free of address %d", int(e)) }

// Malloc allocates n bytes (first fit) and returns the address, which
// is always a non-zero multiple of 8. Allocating zero bytes returns a
// valid unique address of minimal size.
func (h *Heap) Malloc(n int) (int, error) {
	if n < 1 {
		n = 1
	}
	n = (n + align - 1) &^ (align - 1)
	for i, b := range h.free {
		if b.size < n {
			continue
		}
		addr := b.addr
		if b.size == n {
			h.free = append(h.free[:i], h.free[i+1:]...)
		} else {
			h.free[i] = block{addr: b.addr + n, size: b.size - n}
		}
		h.allocs[addr] = n
		if h.allocHook != nil {
			h.allocHook(n)
		}
		return addr, nil
	}
	return 0, ErrOOM
}

// Free releases an allocation, coalescing adjacent free blocks.
func (h *Heap) Free(addr int) error {
	size, ok := h.allocs[addr]
	if !ok {
		return ErrBadFree(addr)
	}
	delete(h.allocs, addr)
	// Insert sorted by address.
	i := 0
	for i < len(h.free) && h.free[i].addr < addr {
		i++
	}
	h.free = append(h.free, block{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = block{addr: addr, size: size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(h.free) && h.free[i].addr+h.free[i].size == h.free[i+1].addr {
		h.free[i].size += h.free[i+1].size
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	if i > 0 && h.free[i-1].addr+h.free[i-1].size == h.free[i].addr {
		h.free[i-1].size += h.free[i].size
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
	return nil
}

// AllocatedBytes reports the total bytes currently allocated.
func (h *Heap) AllocatedBytes() int {
	total := 0
	for _, n := range h.allocs {
		total += n
	}
	return total
}

// FreeBlocks returns the number of fragments on the free list.
func (h *Heap) FreeBlocks() int { return len(h.free) }

// AllocCount reports the number of live allocations.
func (h *Heap) AllocCount() int { return len(h.allocs) }

// Extent is one contiguous region of the heap, for free-list maps in
// diagnostics output.
type Extent struct {
	Addr int `json:"addr"`
	Size int `json:"size"`
}

// FreeList returns a copy of the free list, sorted by address — the
// fragmentation map post-mortem reports and /debug/heap print.
func (h *Heap) FreeList() []Extent {
	out := make([]Extent, len(h.free))
	for i, b := range h.free {
		out[i] = Extent{Addr: b.addr, Size: b.size}
	}
	return out
}

// Check panics with an *AccessError unless the n bytes at addr lie
// inside the heap; a negative n never does.
func (h *Heap) Check(addr, n int) {
	if addr < 0 || n < 0 || n > h.size-addr {
		panic(&AccessError{Addr: addr, N: n, Size: h.size})
	}
}

// AccessError is the panic value of an access outside the heap: the
// MiniC VM ends the program with a segmentation fault, and the
// sun/misc/Unsafe natives throw java/lang/InternalError.
type AccessError struct{ Addr, N, Size int }

func (e *AccessError) Error() string {
	return fmt.Sprintf("umheap: access of %d bytes at address %d outside heap of %d bytes", e.N, e.Addr, e.Size)
}

// --- byte-granularity little-endian accessors ---
//
// LoadU8, StoreU8, LoadI32 and StoreI32 inline: a byte or aligned word
// of the typed array is a bounds compare and an index, and anything
// else calls a slow method. The slow method is a parameter because Go
// charges a call through one 17 of its inlining budget of 80, where a
// direct call costs 57.

// LoadU8 reads the byte at addr.
func (h *Heap) LoadU8(addr int) uint8 { return loadByte(h, addr, (*Heap).loadU8) }

func loadByte(h *Heap, addr int, slow func(*Heap, int) uint8) uint8 {
	if i := uint(addr) >> 2; i < uint(len(h.i32)) {
		return uint8(h.i32[i] >> (addr & 3 * 8))
	}
	return slow(h, addr)
}

func (h *Heap) loadU8(addr int) uint8 {
	h.Check(addr, 1)
	return uint8(h.word(addr>>2) >> (addr & 3 * 8))
}

// StoreU8 writes the byte at addr.
func (h *Heap) StoreU8(addr int, v uint8) { storeByte(h, addr, v, (*Heap).storeU8) }

func storeByte(h *Heap, addr int, v uint8, slow func(*Heap, int, uint8)) {
	if i := uint(addr) >> 2; i < uint(len(h.i32)) {
		s := addr & 3 * 8
		h.i32[i] = h.i32[i]&^(0xFF<<s) | int32(v)<<s
		return
	}
	slow(h, addr, v)
}

func (h *Heap) storeU8(addr int, v uint8) {
	h.Check(addr, 1)
	s := addr & 3 * 8
	h.setWord(addr>>2, h.word(addr>>2)&^(0xFF<<s)|int32(v)<<s)
}

// LoadI8 reads the signed byte at addr.
func (h *Heap) LoadI8(addr int) int8 { return int8(h.LoadU8(addr)) }

// StoreI8 writes the signed byte at addr.
func (h *Heap) StoreI8(addr int, v int8) { h.StoreU8(addr, uint8(v)) }

// LoadU16 reads a little-endian uint16 at addr (any alignment).
func (h *Heap) LoadU16(addr int) uint16 {
	return uint16(h.LoadU8(addr)) | uint16(h.LoadU8(addr+1))<<8
}

// StoreU16 writes a little-endian uint16 at addr.
func (h *Heap) StoreU16(addr int, v uint16) {
	h.StoreU8(addr, uint8(v))
	h.StoreU8(addr+1, uint8(v>>8))
}

// LoadI16 reads a little-endian int16 at addr.
func (h *Heap) LoadI16(addr int) int16 { return int16(h.LoadU16(addr)) }

// StoreI16 writes a little-endian int16 at addr.
func (h *Heap) StoreI16(addr int, v int16) { h.StoreU16(addr, uint16(v)) }

// LoadI32 reads a little-endian int32 at addr.
func (h *Heap) LoadI32(addr int) int32 { return loadWord(h, addr, (*Heap).loadI32) }

// loadWord's rotate moves a misalignment into the top bits, so one
// unsigned compare rejects unaligned, negative and too-high addresses.
func loadWord(h *Heap, addr int, slow func(*Heap, int) int32) int32 {
	if i := bits.RotateLeft(uint(addr), -2); i < uint(len(h.i32)) {
		return h.i32[i]
	}
	return slow(h, addr)
}

func (h *Heap) loadI32(addr int) int32 {
	if addr&3 != 0 {
		return int32(uint32(h.LoadU16(addr)) | uint32(h.LoadU16(addr+2))<<16)
	}
	h.Check(addr, 4)
	return h.word(addr >> 2)
}

// StoreI32 writes a little-endian int32 at addr.
func (h *Heap) StoreI32(addr int, v int32) { storeWord(h, addr, v, (*Heap).storeI32) }

func storeWord(h *Heap, addr int, v int32, slow func(*Heap, int, int32)) {
	if i := bits.RotateLeft(uint(addr), -2); i < uint(len(h.i32)) {
		h.i32[i] = v
		return
	}
	slow(h, addr, v)
}

func (h *Heap) storeI32(addr int, v int32) {
	if addr&3 != 0 {
		h.StoreU16(addr, uint16(v))
		h.StoreU16(addr+2, uint16(uint32(v)>>16))
		return
	}
	h.Check(addr, 4)
	h.setWord(addr>>2, v)
}

// LoadI64 reads a little-endian 64-bit integer at addr as a software
// long.
func (h *Heap) LoadI64(addr int) jlong.Long {
	lo := uint32(h.LoadI32(addr))
	hi := uint32(h.LoadI32(addr + 4))
	return jlong.Long{Hi: hi, Lo: lo}
}

// StoreI64 writes a little-endian 64-bit integer at addr.
func (h *Heap) StoreI64(addr int, v jlong.Long) {
	h.StoreI32(addr, int32(v.Lo))
	h.StoreI32(addr+4, int32(v.Hi))
}

// LoadF32 reads a little-endian float32 at addr.
func (h *Heap) LoadF32(addr int) float32 {
	return math.Float32frombits(uint32(h.LoadI32(addr)))
}

// StoreF32 writes a little-endian float32 at addr.
func (h *Heap) StoreF32(addr int, v float32) {
	h.StoreI32(addr, int32(math.Float32bits(v)))
}

// LoadF64 reads a little-endian float64 at addr.
func (h *Heap) LoadF64(addr int) float64 {
	bits := uint64(uint32(h.LoadI32(addr))) | uint64(uint32(h.LoadI32(addr+4)))<<32
	return math.Float64frombits(bits)
}

// StoreF64 writes a little-endian float64 at addr.
func (h *Heap) StoreF64(addr int, v float64) {
	bits := math.Float64bits(v)
	h.StoreI32(addr, int32(uint32(bits)))
	h.StoreI32(addr+4, int32(uint32(bits>>32)))
}

// ReadBytes copies n bytes starting at addr out of the heap.
func (h *Heap) ReadBytes(addr, n int) []byte {
	h.Check(addr, n)
	out := make([]byte, n)
	for i := range out {
		out[i] = h.LoadU8(addr + i)
	}
	return out
}

// WriteBytes copies b into the heap at addr.
func (h *Heap) WriteBytes(addr int, b []byte) {
	h.Check(addr, len(b))
	for i, c := range b {
		h.StoreU8(addr+i, c)
	}
}

// Memset fills n bytes at addr with v.
func (h *Heap) Memset(addr int, v byte, n int) {
	h.Check(addr, n)
	for i := 0; i < n; i++ {
		h.StoreU8(addr+i, v)
	}
}

// Memcpy copies n bytes from src to dst within the heap, handling
// overlap like memmove.
func (h *Heap) Memcpy(dst, src, n int) {
	h.Check(dst, n)
	h.Check(src, n)
	if dst == src || n == 0 {
		return
	}
	if dst < src {
		for i := 0; i < n; i++ {
			h.StoreU8(dst+i, h.LoadU8(src+i))
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			h.StoreU8(dst+i, h.LoadU8(src+i))
		}
	}
}

// StrLen returns the length of the NUL-terminated string at addr.
func (h *Heap) StrLen(addr int) int {
	n := 0
	for h.LoadU8(addr+n) != 0 {
		n++
	}
	return n
}

// CString reads a NUL-terminated string starting at addr.
func (h *Heap) CString(addr int) string { return string(h.ReadBytes(addr, h.StrLen(addr))) }

// WriteCString writes s plus a NUL terminator at addr.
func (h *Heap) WriteCString(addr int, s string) {
	h.WriteBytes(addr, []byte(s))
	h.StoreU8(addr+len(s), 0)
}
