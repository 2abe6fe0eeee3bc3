package cache

import (
	"math/rand"
	"testing"

	"github.com/swarm-sim/swarm/internal/noc"
	"github.com/swarm-sim/swarm/internal/vt"
)

func testHierarchy(tiles, cores int) *Hierarchy {
	return New(DefaultParams(tiles, cores), noc.New(tiles))
}

func TestL1HitAfterLoad(t *testing.T) {
	h := testHierarchy(4, 4)
	r1 := h.Access(Access{Core: 0, Tile: 0, Line: 100})
	if r1.L1Hit {
		t.Fatal("cold access hit L1")
	}
	r2 := h.Access(Access{Core: 0, Tile: 0, Line: 100})
	if !r2.L1Hit {
		t.Fatal("second load missed L1")
	}
	if r2.Latency != 2 {
		t.Fatalf("L1 hit latency = %d, want 2", r2.Latency)
	}
	if r2.Latency >= r1.Latency {
		t.Fatalf("hit latency %d >= miss latency %d", r2.Latency, r1.Latency)
	}
}

func TestLatencyLevels(t *testing.T) {
	h := testHierarchy(1, 1) // single tile: no NoC hops
	// Cold: L3 miss -> memory.
	r := h.Access(Access{Core: 0, Tile: 0, Line: 500})
	wantCold := uint64(2 + 7 + 9 + 120)
	if r.Latency != wantCold {
		t.Fatalf("cold latency = %d, want %d", r.Latency, wantCold)
	}
	// L1 hit.
	if r := h.Access(Access{Core: 0, Tile: 0, Line: 500}); r.Latency != 2 {
		t.Fatalf("L1 hit latency = %d", r.Latency)
	}
	// Evict from L1 only: touch enough lines mapping to the same L1 set.
	// L1: 16KB/64B/8w = 32 sets. Lines 500+32k map to the same set.
	for i := 1; i <= 8; i++ {
		h.Access(Access{Core: 0, Tile: 0, Line: 500 + uint64(i*32)})
	}
	r = h.Access(Access{Core: 0, Tile: 0, Line: 500})
	if r.L1Hit {
		t.Fatal("line should have been evicted from L1")
	}
	if !r.L2Hit {
		t.Fatal("line should still be in L2")
	}
	if r.Latency != 2+7 {
		t.Fatalf("L2 hit latency = %d, want 9", r.Latency)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	h := testHierarchy(1, 2)
	// A store does not install in L1…
	h.Access(Access{Core: 0, Tile: 0, Line: 7, Write: true})
	r := h.Access(Access{Core: 0, Tile: 0, Line: 7})
	if r.L1Hit {
		t.Fatal("store should not allocate in L1")
	}
	if !r.L2Hit {
		t.Fatal("store should have installed in L2")
	}
}

func TestCrossCoreL1Invalidation(t *testing.T) {
	h := testHierarchy(1, 2)
	h.Access(Access{Core: 0, Tile: 0, Line: 9})
	if r := h.Access(Access{Core: 0, Tile: 0, Line: 9}); !r.L1Hit {
		t.Fatal("expected L1 hit")
	}
	// Core 1 (same tile) writes the line: core 0's copy must invalidate.
	h.Access(Access{Core: 1, Tile: 0, Line: 9, Write: true})
	if r := h.Access(Access{Core: 0, Tile: 0, Line: 9}); r.L1Hit {
		t.Fatal("L1 copy survived a same-tile remote write")
	}
}

func TestCrossTileInvalidation(t *testing.T) {
	h := testHierarchy(4, 1)
	h.Access(Access{Core: 0, Tile: 0, Line: 11})
	h.Access(Access{Core: 1, Tile: 1, Line: 11})
	// Tile 2 writes: both copies die.
	h.Access(Access{Core: 2, Tile: 2, Line: 11, Write: true})
	r := h.Access(Access{Core: 0, Tile: 0, Line: 11})
	if r.L1Hit || r.L2Hit {
		t.Fatal("tile 0 copy survived a remote write")
	}
	if h.Stats().Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
}

func TestRemoteOwnerDowngradeOnRead(t *testing.T) {
	h := testHierarchy(4, 1)
	h.Access(Access{Core: 0, Tile: 0, Line: 13, Write: true}) // tile 0 owns
	before := h.Stats().Writebacks
	h.Access(Access{Core: 1, Tile: 1, Line: 13}) // tile 1 reads
	if h.Stats().Writebacks != before+1 {
		t.Fatal("remote read of owned line did not fetch from owner")
	}
}

func TestFlashClearL1(t *testing.T) {
	h := testHierarchy(1, 1)
	h.Access(Access{Core: 0, Tile: 0, Line: 21})
	h.FlashClearL1(0)
	if r := h.Access(Access{Core: 0, Tile: 0, Line: 21}); r.L1Hit {
		t.Fatal("L1 hit after flash clear")
	}
	if h.Stats().L1FlashClears != 1 {
		t.Fatal("flash clear not counted")
	}
}

func TestCanaryTriggersGlobalCheck(t *testing.T) {
	h := testHierarchy(4, 1)
	later := vt.Time{TS: 10, Cycle: 100, Tile: 0}
	early := vt.Time{TS: 5, Cycle: 200, Tile: 0}
	// Later-VT task installs the line (sets canary = later).
	h.Access(Access{Core: 0, Tile: 0, Line: 33, Spec: true, VT: later})
	// The core dequeues an earlier VT: hardware flash-clears the L1.
	h.FlashClearL1(0)
	// The earlier-VT task L2-hits but fails the canary check.
	r := h.Access(Access{Core: 0, Tile: 0, Line: 33, Spec: true, VT: early})
	if !r.L2Hit {
		t.Fatal("expected L2 hit")
	}
	if h.Stats().CanaryFails == 0 {
		t.Fatal("canary check should have failed for an earlier VT")
	}
	// A yet-later task passes the canary: no global check.
	evenLater := vt.Time{TS: 20, Cycle: 300, Tile: 0}
	cf := h.Stats().CanaryFails
	r = h.Access(Access{Core: 0, Tile: 0, Line: 33, Spec: true, VT: evenLater, Write: true})
	if h.Stats().CanaryFails != cf {
		t.Fatal("later VT should pass the canary check")
	}
	_ = r
}

func TestGlobalCheckTargetsSharers(t *testing.T) {
	h := testHierarchy(4, 1)
	v := func(ts uint64, tile uint32) vt.Time { return vt.Time{TS: ts, Cycle: ts, Tile: tile} }
	// Tiles 1 and 2 touch the line speculatively.
	h.Access(Access{Core: 1, Tile: 1, Line: 55, Spec: true, VT: v(1, 1)})
	h.Access(Access{Core: 2, Tile: 2, Line: 55, Spec: true, VT: v(2, 2)})
	// Tile 0 misses: must be told to check tiles 1 and 2, not itself/3.
	r := h.Access(Access{Core: 0, Tile: 0, Line: 55, Spec: true, VT: v(3, 0), Write: true})
	if !r.NeedGlobalCheck {
		t.Fatal("expected a global check")
	}
	want := map[int]bool{1: true, 2: true}
	if len(r.CheckTiles) != 2 || !want[r.CheckTiles[0]] || !want[r.CheckTiles[1]] {
		t.Fatalf("CheckTiles = %v, want tiles 1 and 2", r.CheckTiles)
	}
}

func TestStickySurvivesEviction(t *testing.T) {
	p := DefaultParams(2, 1)
	p.L2KB = 1 // tiny L2: 1KB/64B/8w = 2 sets, evictions are easy
	p.L3BankKB = 64
	h := New(p, noc.New(2))
	v := vt.Time{TS: 1, Cycle: 1, Tile: 0}
	h.Access(Access{Core: 0, Tile: 0, Line: 4, Spec: true, VT: v})
	// Evict line 4 from tile 0's L2 (same set: line numbers ≡ 4 mod 2… use
	// stride of nSets=2).
	for i := 1; i <= 16; i++ {
		h.Access(Access{Core: 0, Tile: 0, Line: 4 + uint64(i*2), Spec: true, VT: v})
	}
	// Tile 1 writes line 4: the directory must still point at tile 0.
	r := h.Access(Access{Core: 1, Tile: 1, Line: 4, Spec: true, Write: true, VT: vt.Time{TS: 2, Cycle: 2, Tile: 1}})
	if !r.NeedGlobalCheck {
		t.Fatal("expected global check after eviction (sticky bits)")
	}
	found := false
	for _, tl := range r.CheckTiles {
		if tl == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("CheckTiles = %v must include tile 0 via sticky bit", r.CheckTiles)
	}
	// Clearing the sticky bit stops the checks.
	h.ClearSticky(4, 0)
	r = h.Access(Access{Core: 1, Tile: 1, Line: 4, Spec: true, Write: true, VT: vt.Time{TS: 3, Cycle: 3, Tile: 1}})
	for _, tl := range r.CheckTiles {
		if tl == 0 {
			t.Fatal("tile 0 still checked after ClearSticky")
		}
	}
}

func TestZeroLatencyIdealization(t *testing.T) {
	p := DefaultParams(4, 4)
	p.ZeroLatency = true
	h := New(p, noc.New(4))
	r := h.Access(Access{Core: 0, Tile: 0, Line: 77})
	if r.Latency != 0 {
		t.Fatalf("ideal latency = %d, want 0", r.Latency)
	}
	// Metadata still works.
	if r := h.Access(Access{Core: 0, Tile: 0, Line: 77}); !r.L1Hit {
		t.Fatal("ideal mode broke cache metadata")
	}
}

func TestCanaryPerLine(t *testing.T) {
	p := DefaultParams(1, 1)
	p.CanaryPerLine = true
	h := New(p, noc.New(1))
	later := vt.Time{TS: 10, Cycle: 1, Tile: 0}
	early := vt.Time{TS: 5, Cycle: 2, Tile: 0}
	// Install line A with a later VT; line B (same set, different line)
	// with zero VT would share a per-set canary but not a per-line one.
	// L2 has 512 sets; lines 3 and 3+512 share a set.
	h.Access(Access{Core: 0, Tile: 0, Line: 3, Spec: true, VT: later})
	h.Access(Access{Core: 0, Tile: 0, Line: 3 + 512, Spec: true, VT: vt.Time{}})
	h.FlashClearL1(0) // dequeue of a smaller VT clears the L1
	cf := h.Stats().CanaryFails
	// Early task touches line 3+512: per-line canary is zero -> pass.
	h.Access(Access{Core: 0, Tile: 0, Line: 3 + 512, Spec: true, VT: early})
	if h.Stats().CanaryFails != cf {
		t.Fatal("per-line canary should not fail for an unrelated line")
	}
	// But the same early task touching line 3 must fail.
	h.Access(Access{Core: 0, Tile: 0, Line: 3, Spec: true, VT: early})
	if h.Stats().CanaryFails != cf+1 {
		t.Fatal("per-line canary should fail for line installed by later VT")
	}
}

func TestPerSetCanaryIsConservative(t *testing.T) {
	// Same scenario as above but with shared (per-set) canaries: the
	// unrelated line in the same set also triggers the check.
	h := testHierarchy(1, 1)
	later := vt.Time{TS: 10, Cycle: 1, Tile: 0}
	early := vt.Time{TS: 5, Cycle: 2, Tile: 0}
	h.Access(Access{Core: 0, Tile: 0, Line: 3, Spec: true, VT: later})
	h.Access(Access{Core: 0, Tile: 0, Line: 3 + 512, Spec: true, VT: vt.Time{}})
	h.FlashClearL1(0) // dequeue of a smaller VT clears the L1
	cf := h.Stats().CanaryFails
	h.Access(Access{Core: 0, Tile: 0, Line: 3 + 512, Spec: true, VT: early})
	if h.Stats().CanaryFails != cf+1 {
		t.Fatal("per-set canary should conservatively fail (false unfiltered check)")
	}
}

func TestLRUReplacement(t *testing.T) {
	s := newSetAssoc(1, 2) // one set, 2 ways
	s.install(1)
	s.install(2)
	s.lookup(1) // 1 becomes MRU
	victim, ev := s.install(3)
	if !ev || victim != 2 {
		t.Fatalf("victim = %d (evicted=%v), want 2", victim, ev)
	}
	if !s.lookup(1) || !s.lookup(3) || s.lookup(2) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestSetAssocRandomAgainstModel(t *testing.T) {
	// Property-style: set-assoc behaves like per-set LRU lists.
	rng := rand.New(rand.NewSource(11))
	s := newSetAssoc(4, 4)
	model := make(map[int][]uint64) // set -> MRU-ordered lines
	for i := 0; i < 5000; i++ {
		line := uint64(rng.Intn(64))
		set := s.setOf(line)
		hit := s.lookup(line)
		lst := model[set]
		mhit := false
		for j, l := range lst {
			if l == line {
				mhit = true
				copy(lst[1:j+1], lst[:j])
				lst[0] = line
				break
			}
		}
		if hit != mhit {
			t.Fatalf("step %d: hit=%v model=%v (line %d)", i, hit, mhit, line)
		}
		if !hit {
			s.install(line)
			if len(lst) == 4 {
				lst = lst[:3]
			}
			lst = append([]uint64{line}, lst...)
		}
		model[set] = lst
	}
}

func TestStatsCounting(t *testing.T) {
	h := testHierarchy(1, 1)
	h.Access(Access{Core: 0, Tile: 0, Line: 1})
	h.Access(Access{Core: 0, Tile: 0, Line: 1})
	h.Access(Access{Core: 0, Tile: 0, Line: 2, Write: true})
	st := h.Stats()
	if st.Loads != 2 || st.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", st.Loads, st.Stores)
	}
	if st.L1Hits != 1 || st.MemAccesses != 2 {
		t.Fatalf("l1hits=%d mem=%d", st.L1Hits, st.MemAccesses)
	}
}
