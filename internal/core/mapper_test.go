package core

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
)

func TestNewMapperNames(t *testing.T) {
	for _, name := range MapperNames() {
		mp, err := newMapper(name)
		if err != nil {
			t.Fatalf("newMapper(%q): %v", name, err)
		}
		if got := mp.name(); got != name {
			t.Errorf("newMapper(%q).name() = %q", name, got)
		}
	}
	if mp, err := newMapper(""); err != nil || mp.name() != "random" {
		t.Errorf("empty mapper name should select random, got %v, %v", mp, err)
	}
	if _, err := newMapper("bogus"); err == nil {
		t.Error("newMapper(bogus) should fail")
	} else if want := `core: unknown mapper "bogus" (valid: hint, random)`; err.Error() != want {
		t.Errorf("error text:\n got: %s\nwant: %s", err, want)
	}
	badCfg := DefaultConfig(4)
	badCfg.Backend = "native"
	if err := badCfg.validate(); err == nil {
		t.Error("backend=native should fail validation")
	} else if want := `core: unknown backend "native" (valid: rt, rt-conservative, sim)`; err.Error() != want {
		t.Errorf("error text:\n got: %s\nwant: %s", err, want)
	}
	// LocalEnqueue is a random-policy ablation: pairing it with any other
	// mapper must be rejected, not silently ignored.
	cfg := DefaultConfig(4)
	cfg.LocalEnqueue = true
	cfg.Mapper = "hint"
	if err := cfg.validate(); err == nil {
		t.Error("LocalEnqueue + hint mapper should fail validation")
	}
	cfg.Mapper = "random"
	if err := cfg.validate(); err != nil {
		t.Errorf("LocalEnqueue + random mapper should validate: %v", err)
	}
}

func TestHintTile(t *testing.T) {
	for _, tiles := range []int{1, 2, 7, 16} {
		seen := map[int]bool{}
		for key := uint64(0); key < 256; key++ {
			tl := hintTile(key, tiles)
			if tl < 0 || tl >= tiles {
				t.Fatalf("hintTile(%d, %d) = %d out of range", key, tiles, tl)
			}
			if tl != hintTile(key, tiles) {
				t.Fatalf("hintTile(%d, %d) not deterministic", key, tiles)
			}
			seen[tl] = true
		}
		// 256 keys over <= 16 tiles: the mix must reach every tile, or
		// hint placement would silently idle part of the machine.
		if len(seen) != tiles {
			t.Errorf("hintTile covers %d of %d tiles over 256 keys", len(seen), tiles)
		}
	}
}

func TestMapperPlacement(t *testing.T) {
	m := &Machine{cfg: Config{Tiles: 4}}
	var d guest.TaskDesc

	h := &hintMapper{}
	hinted := d.WithHint(42)
	want := hintTile(42, 4)
	for src := -1; src < 4; src++ {
		if got := h.place(m, hinted, src); got != want {
			t.Fatalf("hint placement from src %d = %d, want home tile %d", src, got, want)
		}
	}
	// Hintless tasks stay on the enqueuing tile; hintless roots round-robin.
	if got := h.place(m, d, 3); got != 3 {
		t.Fatalf("hintless placement = %d, want local tile 3", got)
	}
	if a, b := h.place(m, d, -1), h.place(m, d, -1); a != 0 || b != 1 {
		t.Fatalf("hintless roots = %d,%d, want round-robin 0,1", a, b)
	}
}
