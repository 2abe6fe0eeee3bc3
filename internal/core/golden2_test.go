package core

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/guest"
)

// Golden property tests under adversarial configurations: the same random
// chaos programs as TestGoldenRandomPrograms, but with tiny Bloom filters
// (constant false positives), idealized queues/memory, and single-core
// machines. All must match sequential timestamp-order
// execution exactly.

func goldenConfigVariants() map[string]Config {
	mk := func(tweak func(*Config)) Config {
		cfg := Config{
			Tiles: 2, CoresPerTile: 2,
			TaskQPerCore: 8, CommitQPerCore: 2,
			GVTPeriod:   100,
			SpillBatch:  4,
			Bloom:       bloom.Default(),
			Seed:        99,
			MaxCycles:   500_000_000,
			DebugChecks: true,
		}
		tweak(&cfg)
		cfg.Cache = cache.DefaultParams(cfg.Tiles, cfg.CoresPerTile)
		if cfg.Cache.ZeroLatency {
			// re-apply after DefaultParams overwrote it
		}
		return cfg
	}
	out := map[string]Config{}
	out["tiny-bloom"] = mk(func(c *Config) {
		// 64-bit 4-way filters: heavy false positives, constant spurious
		// aborts — correctness must be unaffected.
		c.Bloom = bloom.Config{Bits: 64, Ways: 4}
	})
	out["precise"] = mk(func(c *Config) { c.Bloom = bloom.Config{Precise: true} })
	out["unbounded"] = mk(func(c *Config) { c.UnboundedQueues = true })
	out["single-core"] = mk(func(c *Config) { c.Tiles = 1; c.CoresPerTile = 1 })
	zl := mk(func(c *Config) {})
	zl.Cache.ZeroLatency = true
	out["zero-latency"] = zl
	return out
}

func runGoldenOnce(t *testing.T, name string, cfg Config, seed uint64) {
	t.Helper()
	const poolWords = 48
	var pool uint64
	var roots []guest.TaskDesc
	prog := &Program{
		Fns: []guest.TaskFn{func(e guest.TaskEnv) { chaosTask(seed, pool, poolWords)(e) }},
		Setup: func(m *Machine) {
			pool = m.SetupAlloc(poolWords * 8)
			roots = roots[:0]
			for i := uint64(0); i < 10; i++ {
				d := guest.TaskDesc{Fn: 0, TS: i * 10000, Args: [3]uint64{0}}
				roots = append(roots, d)
				m.EnqueueRootDesc(d)
			}
		},
	}
	m, err := loadProgram(cfg, prog)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	refMem, refTasks := runReference(func(e guest.TaskEnv) {
		chaosTask(seed, pool, poolWords)(e)
	}, roots, pool)
	if int(st.Commits) != refTasks {
		t.Fatalf("%s seed %d: commits %d != reference %d", name, seed, st.Commits, refTasks)
	}
	for a, v := range refMem {
		if got := m.Mem().Load(a); got != v {
			t.Fatalf("%s seed %d: mem[%#x] = %d, want %d", name, seed, a, got, v)
		}
	}
}

func TestGoldenConfigMatrix(t *testing.T) {
	for name, cfg := range goldenConfigVariants() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			for seed := uint64(20); seed < 26; seed++ {
				runGoldenOnce(t, name, cfg, seed)
			}
		})
	}
}

// TestBloomSizeOnlyAffectsTiming: across signature configurations the
// final memory state is identical; only cycles/aborts differ.
func TestBloomSizeOnlyAffectsTiming(t *testing.T) {
	const poolWords = 32
	build := func() (*Program, *uint64) {
		var pool uint64
		prog := &Program{
			Fns: []guest.TaskFn{func(e guest.TaskEnv) { chaosTask(777, pool, poolWords)(e) }},
			Setup: func(m *Machine) {
				pool = m.SetupAlloc(poolWords * 8)
				for i := uint64(0); i < 12; i++ {
					m.EnqueueRoot(0, i*10000, 0)
				}
			},
		}
		return prog, &pool
	}
	var snapshots []map[uint64]uint64
	var aborts []uint64
	for _, bc := range []bloom.Config{
		{Bits: 64, Ways: 4},
		{Bits: 2048, Ways: 8},
		{Precise: true},
	} {
		cfg := DefaultConfig(8)
		cfg.Bloom = bc
		prog, _ := build()
		m, err := loadProgram(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%v: %v", bc, err)
		}
		snapshots = append(snapshots, m.Mem().Snapshot())
		aborts = append(aborts, st.Aborts)
	}
	for i := 1; i < len(snapshots); i++ {
		if len(snapshots[i]) != len(snapshots[0]) {
			t.Fatalf("config %d produced different memory footprint", i)
		}
		for a, v := range snapshots[0] {
			if snapshots[i][a] != v {
				t.Fatalf("config %d: mem[%#x] = %d, want %d", i, a, snapshots[i][a], v)
			}
		}
	}
	// Tiny filters should cause at least as many aborts as precise ones.
	if aborts[0] < aborts[2] {
		t.Errorf("64-bit filters aborted less (%d) than precise (%d)?", aborts[0], aborts[2])
	}
	t.Logf("aborts by config: 64b=%d 2048b=%d precise=%d", aborts[0], aborts[1], aborts[2])
}
