package bench

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestOCCStressSeeds hammers the Silo OCC implementation across seeds and
// machine sizes; every run must satisfy the serializability invariants.
func TestOCCStressSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, cores := range []int{2, 8} {
			b := NewSilo(1, 80, seed) // single warehouse: maximum contention
			if _, err := RunParallel(b, cores); err != nil {
				t.Fatalf("seed %d cores %d: %v", seed, cores, err)
			}
		}
	}
}

// TestSiloSwarmSeeds: the Swarm decomposition must match the reference
// exactly for many transaction mixes.
func TestSiloSwarmSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	for seed := int64(10); seed <= 14; seed++ {
		b := NewSilo(2, 70, seed)
		cfg := core.DefaultConfig(8)
		cfg.TaskQPerCore = 16
		cfg.CommitQPerCore = 4
		if _, err := b.RunSwarm(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
