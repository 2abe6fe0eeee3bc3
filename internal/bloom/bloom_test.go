package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func configs() []Config {
	return []Config{
		{Bits: 256, Ways: 4},
		{Bits: 1024, Ways: 4},
		{Bits: 2048, Ways: 8},
		{Precise: true},
	}
}

// Property: no false negatives, for every configuration.
func TestNoFalseNegatives(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		f := func(lines []uint64) bool {
			flt := NewFilter(cfg)
			for _, l := range lines {
				flt.Insert(l)
			}
			for _, l := range lines {
				if !flt.MayContain(l) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
}

func TestPreciseHasNoFalsePositives(t *testing.T) {
	flt := NewFilter(Config{Precise: true})
	rng := rand.New(rand.NewSource(1))
	in := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		l := rng.Uint64() % 10000
		flt.Insert(l)
		in[l] = true
	}
	for l := uint64(0); l < 10000; l++ {
		if flt.MayContain(l) != in[l] {
			t.Fatalf("precise filter wrong at line %d", l)
		}
	}
}

func TestFalsePositiveRateOrdering(t *testing.T) {
	// Bigger filters should have (weakly) fewer false positives on the
	// same workload. Use a task-footprint-sized insert set (~50 lines,
	// like des in Table 1).
	rng := rand.New(rand.NewSource(7))
	inserts := make([]uint64, 50)
	for i := range inserts {
		inserts[i] = rng.Uint64()
	}
	probe := make([]uint64, 20000)
	for i := range probe {
		probe[i] = rng.Uint64()
	}
	rate := func(cfg Config) float64 {
		f := NewFilter(cfg)
		for _, l := range inserts {
			f.Insert(l)
		}
		fp := 0
		for _, l := range probe {
			if f.MayContain(l) {
				fp++
			}
		}
		return float64(fp) / float64(len(probe))
	}
	small := rate(Config{Bits: 256, Ways: 4})
	big := rate(Config{Bits: 2048, Ways: 8})
	if big > small {
		t.Errorf("2048b/8w FP rate %.4f > 256b/4w rate %.4f", big, small)
	}
	if small == 0 {
		t.Error("expected some false positives in a 256-bit filter with 50 lines")
	}
	if big > 0.01 {
		t.Errorf("2048b/8w FP rate %.4f too high for 50 lines", big)
	}
}

func TestClear(t *testing.T) {
	for _, cfg := range configs() {
		f := NewFilter(cfg)
		if f.Count() != 0 {
			t.Fatalf("%v: new filter not empty", cfg)
		}
		f.Insert(12345)
		if f.Count() != 1 {
			t.Fatalf("%v: count wrong after insert", cfg)
		}
		f.Clear()
		if f.Count() != 0 {
			t.Fatalf("%v: not empty after clear", cfg)
		}
		if f.MayContain(12345) {
			t.Fatalf("%v: contains after clear", cfg)
		}
	}
}

func TestDeterministicHashing(t *testing.T) {
	a := NewFilter(Default())
	b := NewFilter(Default())
	a.Insert(42)
	b.Insert(42)
	for l := uint64(0); l < 5000; l++ {
		if a.MayContain(l) != b.MayContain(l) {
			t.Fatal("two filters with identical inserts disagree: hashing nondeterministic")
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{Bits: 0, Ways: 4},
		{Bits: 2048, Ways: 0},
		{Bits: 100, Ways: 4},  // 25 bits/way not a power of two
		{Bits: 2049, Ways: 8}, // not divisible
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewFilter(cfg)
		}()
	}
}

func TestConfigString(t *testing.T) {
	if Default().String() != "2048b/8way" {
		t.Errorf("Default().String() = %q", Default().String())
	}
	if (Config{Precise: true}).String() != "precise" {
		t.Error("precise string wrong")
	}
	if Default().SizeBytes() != 256 {
		t.Errorf("SizeBytes = %d, want 256", Default().SizeBytes())
	}
}
