package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	if got := m.Load(0x1008); got != 0 {
		t.Fatalf("untouched word = %d, want 0", got)
	}
}

func TestMisalignedPanics(t *testing.T) {
	m := New()
	for _, fn := range []func(){
		func() { m.Load(0x1001) },
		func() { m.Store(0x1007, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on misaligned access")
				}
			}()
			fn()
		}()
	}
}

// TestSparsePages: a page materializes on first touch, through Store or
// Page, whose array is the page itself.
func TestSparsePages(t *testing.T) {
	m := New()
	m.Store(0, 1)
	m.Store(1<<40, 2)
	m.Page(1 << 50)[1] = 3
	if m.Pages() != 3 {
		t.Fatalf("Pages = %d, want 3", m.Pages())
	}
	if m.Load(0) != 1 || m.Load(1<<40) != 2 || m.Load(1<<50+8) != 3 || m.Page(8)[0] != 1 {
		t.Fatal("cross-page values lost")
	}
}

// Property: Memory behaves exactly like a map[uint64]uint64 over aligned
// addresses.
func TestMemoryMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		ref := make(map[uint64]uint64)
		for i := 0; i < 2000; i++ {
			addr := (uint64(rng.Intn(1 << 14))) << WordShift
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				m.Store(addr, v)
				ref[addr] = v
			} else if m.Load(addr) != ref[addr] {
				return false
			}
		}
		for a, v := range ref {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	m := New()
	m.Store(0x2000, 7)
	m.Store(0x2008, 0) // zero words omitted from snapshots
	s := m.Snapshot()
	if len(s) != 1 || s[0x2000] != 7 {
		t.Fatalf("Snapshot = %v", s)
	}
}

func TestLineGeometry(t *testing.T) {
	if Line(0) != 0 || Line(63) != 0 || Line(64) != 1 || Line(128) != 2 {
		t.Fatal("Line() wrong")
	}
}

func TestAllocatorAlignmentAndDisjointness(t *testing.T) {
	a := NewAllocator()
	seen := map[uint64]bool{}
	prevEnd := uint64(0)
	for i := 0; i < 100; i++ {
		n := uint64(i%17 + 1)
		addr := a.Alloc(n)
		if !WordAligned(addr) {
			t.Fatalf("Alloc returned misaligned %#x", addr)
		}
		if addr < prevEnd {
			t.Fatalf("overlapping allocation at %#x (prev end %#x)", addr, prevEnd)
		}
		prevEnd = addr + (n+7)&^uint64(7)
		if seen[addr] {
			t.Fatalf("duplicate address %#x", addr)
		}
		seen[addr] = true
	}
}

func TestAllocLineAligned(t *testing.T) {
	a := NewAllocator()
	a.Alloc(8) // misalign the break
	addr := a.AllocLineAligned(100)
	if addr%LineBytes != 0 {
		t.Fatalf("AllocLineAligned returned %#x", addr)
	}
	next := a.Alloc(8)
	if Line(next) == Line(addr+99) && next < addr+128 {
		t.Fatalf("next alloc %#x shares a line with the aligned region ending at %#x", next, addr+127)
	}
}

func TestQuarantineLifecycle(t *testing.T) {
	a := NewAllocator()
	addr := a.Alloc(64)
	a.Free(1, addr, 64)
	// Not yet recyclable.
	if got := a.Alloc(64); got == addr {
		t.Fatal("quarantined span recycled before release")
	}
	a.ReleaseQuarantine(1)
	if got := a.Alloc(64); got != addr {
		t.Fatalf("released span not recycled: got %#x want %#x", got, addr)
	}
}

func TestDropQuarantine(t *testing.T) {
	a := NewAllocator()
	addr := a.Alloc(64)
	a.Free(2, addr, 64)
	a.DropQuarantine(2)
	a.ReleaseQuarantine(2) // no-op
	if got := a.Alloc(64); got == addr {
		t.Fatal("dropped span was recycled")
	}
}

func TestZeroByteAlloc(t *testing.T) {
	a := NewAllocator()
	x := a.Alloc(0)
	y := a.Alloc(0)
	if x == y {
		t.Fatal("zero-byte allocations alias")
	}
}
