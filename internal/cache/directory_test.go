package cache

import (
	"math/rand"
	"testing"

	"github.com/swarm-sim/swarm/internal/noc"
	"github.com/swarm-sim/swarm/internal/vt"
)

// TestDirectoryInclusionProperty: after an arbitrary access sequence, every
// line resident in a tile's L2 must be recorded at the directory as a
// sharer or owner of that tile — otherwise a remote write could miss the
// copy and conflict detection/coherence would be unsound.
func TestDirectoryInclusionProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultParams(4, 2)
		p.L2KB = 2     // tiny: lots of evictions
		p.L3BankKB = 8 // tiny: recalls
		h := New(p, noc.New(4))
		for i := 0; i < 20000; i++ {
			core := rng.Intn(8)
			h.Access(Access{
				Core: core, Tile: core / 2,
				Line:  uint64(rng.Intn(512)),
				Write: rng.Intn(3) == 0,
				Spec:  rng.Intn(2) == 0,
				VT:    vt.Time{TS: uint64(i), Cycle: uint64(i), Tile: uint32(core / 2)},
			})
		}
		// Inclusion check: walk each tile's L2 tags.
		for tile := 0; tile < 4; tile++ {
			for si := 0; si < h.l2[tile].nSets; si++ {
				for _, e := range h.l2[tile].set(si) {
					if !e.valid || e.epoch != h.l2[tile].epoch {
						continue
					}
					de, ok := h.dir[e.line]
					if !ok {
						t.Fatalf("seed %d: line %d in tile %d L2 but no directory entry", seed, e.line, tile)
					}
					if de.sharers&(1<<uint(tile)) == 0 && int(de.owner) != tile {
						t.Fatalf("seed %d: line %d in tile %d L2 but dir says sharers=%b owner=%d",
							seed, e.line, tile, de.sharers, de.owner)
					}
				}
			}
		}
	}
}

// TestSingleOwnerInvariant: at most one tile can own a line exclusively,
// and an owned line cannot be resident in another tile's L2.
func TestSingleOwnerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	h := New(DefaultParams(4, 1), noc.New(4))
	for i := 0; i < 30000; i++ {
		c := rng.Intn(4)
		h.Access(Access{
			Core: c, Tile: c,
			Line:  uint64(rng.Intn(64)),
			Write: rng.Intn(2) == 0,
		})
		if i%1000 == 0 {
			for line, de := range h.dir {
				if de.owner < 0 {
					continue
				}
				for tile := 0; tile < 4; tile++ {
					if tile == int(de.owner) {
						continue
					}
					if h.l2[tile].lookup(line) {
						t.Fatalf("line %d owned by %d but resident in tile %d", line, de.owner, tile)
					}
				}
			}
		}
	}
}

// TestWriteInvalidatesAllReaders: after a write from one tile, no other
// tile can L2-hit the line.
func TestWriteInvalidatesAllReaders(t *testing.T) {
	h := New(DefaultParams(4, 1), noc.New(4))
	for tile := 0; tile < 4; tile++ {
		h.Access(Access{Core: tile, Tile: tile, Line: 42})
	}
	h.Access(Access{Core: 0, Tile: 0, Line: 42, Write: true})
	for tile := 1; tile < 4; tile++ {
		r := h.Access(Access{Core: tile, Tile: tile, Line: 42})
		if r.L1Hit || r.L2Hit {
			t.Fatalf("tile %d still hits line 42 after a remote write", tile)
		}
		// Only check the first reader; later ones legitimately hit again.
		break
	}
}

// BenchmarkAccessL1Hit measures the hot path of the hierarchy.
func BenchmarkAccessL1Hit(b *testing.B) {
	h := New(DefaultParams(16, 4), noc.New(16))
	h.Access(Access{Core: 0, Tile: 0, Line: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(Access{Core: 0, Tile: 0, Line: 7})
	}
}

// BenchmarkAccessL2Miss measures the miss path including directory work.
func BenchmarkAccessL2Miss(b *testing.B) {
	h := New(DefaultParams(16, 4), noc.New(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(Access{Core: i % 64, Tile: (i % 64) / 4, Line: uint64(i)})
	}
}
