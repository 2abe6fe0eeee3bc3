package bench

import (
	"reflect"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestAllAppsUnderAllMappers runs every registered app under every
// task-mapping policy on a 16-core (4-tile) machine. Each run's result is
// verified against the host reference inside RunSwarm, and each (app,
// mapper) cell must be run-to-run deterministic — the golden fingerprint
// corpus pins only the random policy, so this is the coverage for hint
// placement.
func TestAllAppsUnderAllMappers(t *testing.T) {
	for _, name := range AppNames() {
		b, err := New(name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, mp := range core.MapperNames() {
			cfg := core.DefaultConfig(16)
			cfg.Mapper = mp
			st1, err := b.RunSwarm(cfg)
			if err != nil {
				t.Fatalf("%s mapper=%s: %v", name, mp, err)
			}
			if st1.Mapper != mp {
				t.Fatalf("%s: Stats.Mapper = %q, want %q", name, st1.Mapper, mp)
			}
			st2, err := b.RunSwarm(cfg)
			if err != nil {
				t.Fatalf("%s mapper=%s rerun: %v", name, mp, err)
			}
			if !reflect.DeepEqual(st1, st2) {
				t.Fatalf("%s mapper=%s: nondeterministic Stats across identical runs", name, mp)
			}
		}
	}
}
