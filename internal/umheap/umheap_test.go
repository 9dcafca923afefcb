package umheap

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"doppio/internal/jlong"
)

func heaps() map[string]*Heap {
	return map[string]*Heap{
		"typed":  New(1<<16, true, nil),
		"number": New(1<<16, false, nil),
	}
}

func TestMallocAlignmentAndNonNull(t *testing.T) {
	for name, h := range heaps() {
		for _, n := range []int{0, 1, 7, 8, 9, 100} {
			addr, err := h.Malloc(n)
			if err != nil {
				t.Fatalf("%s: Malloc(%d): %v", name, n, err)
			}
			if addr == 0 {
				t.Errorf("%s: Malloc returned NULL", name)
			}
			if addr%8 != 0 {
				t.Errorf("%s: Malloc(%d) = %d, not 8-aligned", name, n, addr)
			}
		}
	}
}

func TestMallocDistinctRegions(t *testing.T) {
	h := New(1<<12, true, nil)
	a, _ := h.Malloc(16)
	b, _ := h.Malloc(16)
	if a == b || (b > a && b < a+16) || (a > b && a < b+16) {
		t.Errorf("overlapping allocations %d, %d", a, b)
	}
}

func TestFreeAndReuse(t *testing.T) {
	h := New(256, true, nil)
	a, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	b, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("first fit should reuse freed block: got %d, want %d", b, a)
	}
}

func TestDoubleFree(t *testing.T) {
	h := New(256, true, nil)
	a, _ := h.Malloc(8)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err == nil {
		t.Error("double free not detected")
	}
	if err := h.Free(12345); err == nil {
		t.Error("bad free not detected")
	}
}

func TestOOM(t *testing.T) {
	h := New(128, true, nil)
	if _, err := h.Malloc(1 << 20); err != ErrOOM {
		t.Errorf("err = %v, want ErrOOM", err)
	}
}

func TestCoalescing(t *testing.T) {
	h := New(1<<12, true, nil)
	a, _ := h.Malloc(64)
	b, _ := h.Malloc(64)
	c, _ := h.Malloc(64)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(c); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(b); err != nil {
		t.Fatal(err)
	}
	if h.FreeBlocks() != 1 {
		t.Errorf("FreeBlocks = %d after freeing everything, want 1 (coalesced)", h.FreeBlocks())
	}
	// The whole arena must be allocatable again.
	if _, err := h.Malloc(h.Size() - 8); err != nil {
		t.Errorf("arena not fully coalesced: %v", err)
	}
}

func TestAllocatedBytes(t *testing.T) {
	h := New(1<<12, true, nil)
	a, _ := h.Malloc(10) // rounds to 16
	if got := h.AllocatedBytes(); got != 16 {
		t.Errorf("AllocatedBytes = %d, want 16", got)
	}
	h.Free(a)
	if got := h.AllocatedBytes(); got != 0 {
		t.Errorf("AllocatedBytes after free = %d", got)
	}
}

func TestScalarRoundTrips(t *testing.T) {
	for name, h := range heaps() {
		addr, _ := h.Malloc(64)
		h.StoreU8(addr, 0xAB)
		if h.LoadU8(addr) != 0xAB {
			t.Errorf("%s: u8", name)
		}
		h.StoreI8(addr+1, -5)
		if h.LoadI8(addr+1) != -5 {
			t.Errorf("%s: i8", name)
		}
		h.StoreU16(addr+2, 0xBEEF)
		if h.LoadU16(addr+2) != 0xBEEF {
			t.Errorf("%s: u16", name)
		}
		h.StoreI16(addr+6, -12345)
		if h.LoadI16(addr+6) != -12345 {
			t.Errorf("%s: i16", name)
		}
		h.StoreI32(addr+8, -123456789)
		if h.LoadI32(addr+8) != -123456789 {
			t.Errorf("%s: i32", name)
		}
		h.StoreI64(addr+16, jlong.FromInt64(-1234567890123456789))
		if h.LoadI64(addr+16).Int64() != -1234567890123456789 {
			t.Errorf("%s: i64", name)
		}
		h.StoreF32(addr+24, 3.5)
		if h.LoadF32(addr+24) != 3.5 {
			t.Errorf("%s: f32", name)
		}
		h.StoreF64(addr+32, math.Pi)
		if h.LoadF64(addr+32) != math.Pi {
			t.Errorf("%s: f64", name)
		}
	}
}

func TestLittleEndianLayout(t *testing.T) {
	for name, h := range heaps() {
		addr, _ := h.Malloc(8)
		h.StoreI32(addr, 0x04030201)
		for i, want := range []uint8{1, 2, 3, 4} {
			if got := h.LoadU8(addr + i); got != want {
				t.Errorf("%s: byte %d = %#x, want %#x (little endian)", name, i, got, want)
			}
		}
	}
}

func TestUnalignedAccess(t *testing.T) {
	for name, h := range heaps() {
		addr, _ := h.Malloc(16)
		h.StoreI32(addr+1, 0x0A0B0C0D)
		if got := h.LoadI32(addr + 1); got != 0x0A0B0C0D {
			t.Errorf("%s: unaligned i32 = %#x", name, got)
		}
		h.StoreU16(addr+9, 0x1234)
		if got := h.LoadU16(addr + 9); got != 0x1234 {
			t.Errorf("%s: unaligned u16 = %#x", name, got)
		}
	}
}

func TestStoresAgreeProperty(t *testing.T) {
	typed := New(4096, true, nil)
	num := New(4096, false, nil)
	f := func(off uint8, v int32) bool {
		addr := 8 + int(off)%1024*4
		typed.StoreI32(addr, v)
		num.StoreI32(addr, v)
		return typed.LoadI32(addr) == num.LoadI32(addr) && typed.LoadI32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBulkOps(t *testing.T) {
	for name, h := range heaps() {
		addr, _ := h.Malloc(64)
		data := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}
		h.WriteBytes(addr, data)
		if !bytes.Equal(h.ReadBytes(addr, len(data)), data) {
			t.Errorf("%s: WriteBytes/ReadBytes mismatch", name)
		}
		h.Memset(addr, 0xFF, 4)
		if !bytes.Equal(h.ReadBytes(addr, 5), []byte{0xFF, 0xFF, 0xFF, 0xFF, 5}) {
			t.Errorf("%s: Memset mismatch", name)
		}
		// Overlapping memmove semantics.
		h.WriteBytes(addr, []byte{1, 2, 3, 4, 5})
		h.Memcpy(addr+2, addr, 3)
		if !bytes.Equal(h.ReadBytes(addr, 5), []byte{1, 2, 1, 2, 3}) {
			t.Errorf("%s: forward overlap = %v", name, h.ReadBytes(addr, 5))
		}
		h.WriteBytes(addr, []byte{1, 2, 3, 4, 5})
		h.Memcpy(addr, addr+2, 3)
		if !bytes.Equal(h.ReadBytes(addr, 5), []byte{3, 4, 5, 4, 5}) {
			t.Errorf("%s: backward overlap = %v", name, h.ReadBytes(addr, 5))
		}
	}
}

func TestCString(t *testing.T) {
	h := New(256, true, nil)
	addr, _ := h.Malloc(32)
	h.WriteCString(addr, "hello")
	if got := h.CString(addr); got != "hello" {
		t.Errorf("CString = %q", got)
	}
	h.WriteCString(addr, "")
	if got := h.CString(addr); got != "" {
		t.Errorf("empty CString = %q", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	h := New(64, true, nil)
	for _, fn := range []func(){
		func() { h.LoadU8(64) },
		func() { h.StoreI32(61, 0) },
		func() { h.LoadU8(-1) },
		func() { h.ReadBytes(60, 8) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*AccessError); !ok {
					t.Error("expected AccessError panic")
				}
			}()
			fn()
		}()
	}
}

func TestAllocHook(t *testing.T) {
	var saw int
	h := New(1024, true, func(n int) { saw += n })
	if _, err := h.Malloc(64); err != nil || saw != 0 || h.Touched() {
		t.Fatalf("before the first access: hook saw %d, touched %v, malloc err %v", saw, h.Touched(), err)
	}
	h.LoadU8(8)
	h.StoreI32(16, 1)
	if saw != 1024 || !h.Touched() {
		t.Errorf("hook saw %d after the first accesses, want 1024 once", saw)
	}
	num := New(1024, false, func(n int) { t.Error("number array reported typed alloc") })
	num.StoreU8(8, 1)
}

func TestMallocFreeStress(t *testing.T) {
	h := New(1<<14, true, nil)
	addrs := make(map[int]byte)
	seq := byte(1)
	for round := 0; round < 200; round++ {
		if round%3 != 2 {
			if addr, err := h.Malloc(16 + round%48); err == nil {
				h.Memset(addr, seq, 16)
				addrs[addr] = seq
				seq++
			}
		} else {
			for addr, v := range addrs {
				// Verify contents survived neighbours' writes.
				if got := h.LoadU8(addr); got != v {
					t.Fatalf("corruption at %d: %d != %d", addr, got, v)
				}
				if err := h.Free(addr); err != nil {
					t.Fatal(err)
				}
				delete(addrs, addr)
				break
			}
		}
	}
	for addr, v := range addrs {
		if got := h.LoadU8(addr); got != v {
			t.Fatalf("final corruption at %d", addr)
		}
	}
}

func BenchmarkTypedHeapI32(b *testing.B) {
	h := New(1<<16, true, nil)
	addr, _ := h.Malloc(4096)
	for i := 0; i < b.N; i++ {
		off := addr + i*4%4096
		h.StoreI32(off, int32(i))
		if h.LoadI32(off) != int32(i) {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkNumberHeapI32(b *testing.B) {
	h := New(1<<16, false, nil)
	addr, _ := h.Malloc(4096)
	for i := 0; i < b.N; i++ {
		off := addr + i*4%4096
		h.StoreI32(off, int32(i))
		if h.LoadI32(off) != int32(i) {
			b.Fatal("mismatch")
		}
	}
}

func TestCheckRejectsNegativeLengthsAndWrap(t *testing.T) {
	for name, h := range heaps() {
		addr, _ := h.Malloc(16)
		for _, fn := range []func(){
			func() { h.ReadBytes(addr, -5) },
			func() { h.Memset(addr, 0, -1) },
			func() { h.Check(1<<62, 1<<62) },
			func() { h.LoadI32(math.MaxInt - 1) },
			func() { h.StoreU8(-1, 0) },
			func() { h.StoreU8(h.Size()-1, 'x'); h.StrLen(h.Size() - 1) }, // no NUL before the end
		} {
			func() {
				defer func() {
					if _, ok := recover().(*AccessError); !ok {
						t.Errorf("%s: expected AccessError panic", name)
					}
				}()
				fn()
			}()
		}
	}
}

func TestCloneCopiesAndDefersFirstTouch(t *testing.T) {
	for name, h := range heaps() {
		reported := 0
		c := h.Clone(func(int) { reported++ })
		if c.Touched() || reported != 0 {
			t.Errorf("%s: clone of an untouched heap allocated its array (reported %d)", name, reported)
		}
		addr, _ := h.Malloc(8)
		h.StoreI32(addr, 7)
		c = h.Clone(func(int) { reported++ })
		c.StoreI32(addr, 9)
		if h.LoadI32(addr) != 7 || c.LoadI32(addr) != 9 || c.AllocCount() != 1 {
			t.Errorf("%s: clone shares memory or lost the allocation map", name)
		}
		if want := map[string]int{"typed": 1, "number": 0}[name]; reported != want {
			t.Errorf("%s: clone reported %d typed allocations, want %d", name, reported, want)
		}
	}
}
