// Package core implements the Swarm microarchitecture — the paper's primary
// contribution (§4): per-tile hardware task units (task queue, commit queue,
// order queue), speculative out-of-order task dispatch with unique virtual
// times, eager versioning with undo logs, hierarchical Bloom-filter conflict
// detection, selective aborts, scalable GVT-based ordered commits, and
// coalescer/splitter task spilling for bounded queues.
package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/cache"
)

// Config describes one Swarm machine. DefaultConfig reproduces Table 3.
type Config struct {
	// Tiles and CoresPerTile size the CMP (Fig 2: 16 tiles x 4 cores).
	Tiles        int
	CoresPerTile int

	// TaskQPerCore and CommitQPerCore are hardware queue entries per core
	// (Table 3: 64 and 16; so a 16-tile machine has 4096 and 1024 total).
	TaskQPerCore   int
	CommitQPerCore int

	// UnboundedQueues idealizes away queue capacity (Table 5).
	UnboundedQueues bool

	// Swarm instruction costs (Table 3: 5 cycles each).
	EnqueueCost uint64
	DequeueCost uint64
	FinishCost  uint64

	// GVTPeriod is the cycle interval between GVT updates (Table 3: 200).
	GVTPeriod uint64

	// TileCheckCost is the base cost of a tile conflict check; each
	// virtual-time comparison adds one cycle (Table 3).
	TileCheckCost uint64

	// SpillThresholdPct triggers a coalescer when the task queue passes
	// this occupancy (Table 3: 75%); each coalescer spills up to
	// SpillBatch tasks (Table 3: 15).
	SpillThresholdPct int
	SpillBatch        int

	// SpillCyclesPerTask approximates the coalescer/splitter work to move
	// one descriptor to/from memory (a handful of memory accesses).
	SpillCyclesPerTask uint64

	// MaxChildren is the hardware limit on untracked children (§4.1: 8).
	MaxChildren int

	// Bloom configures conflict-detection signatures (Table 3).
	Bloom bloom.Config

	// Cache configures the memory hierarchy; Tiles/CoresPerTile are
	// copied in. Set Cache.ZeroLatency for Table 5's ideal memory.
	Cache cache.Params

	// HopCycles is the mesh per-hop latency (Table 3: 3).
	HopCycles uint64

	// Seed drives the random tile selection for task enqueues.
	Seed int64

	// Mapper names the task-mapping policy: which tile each enqueued task
	// lands on. "" or "random" is the paper's uniform-random placement
	// (bit-identical to the pre-mapper machine); see MapperNames for the
	// full policy list.
	Mapper string

	// LocalEnqueue is an ablation knob: send children to the parent's own
	// tile instead of a random one. The paper's design uses random
	// enqueues for load balance (§7: "distributed priority queues,
	// load-balanced through random enqueues"); this knob quantifies what
	// that choice buys.
	LocalEnqueue bool

	// MaxCycles aborts the simulation if exceeded (0 = no limit); a
	// safety net against livelock bugs.
	MaxCycles uint64

	// TraceInterval, when non-zero, samples per-tile execution state
	// every so many cycles (Fig 18 uses 500).
	TraceInterval uint64

	// DebugChecks enables expensive internal invariant assertions
	// (commit-order checks); used by the test suite.
	DebugChecks bool

	// Backend names the execution engine that runs the program. "" or
	// "sim" is the cycle-level simulator (this package); "rt" is the
	// native speculative host runtime (internal/rt) and "rt-conservative"
	// its conservative ordered-scheduling mode. The core package itself
	// only executes "sim"; the backend layer (internal/backend) dispatches
	// on this field, and every backend applies the same Validate rules.
	Backend string
}

// BackendNames lists the valid Config.Backend values, default first.
func BackendNames() []string { return []string{"sim", "rt", "rt-conservative"} }

// sortedNames joins a name list alphabetically for error messages (the
// registries themselves stay in semantic order, default first).
func sortedNames(names []string) string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return strings.Join(s, ", ")
}

// ValidBackend reports whether name selects a known execution backend
// ("" selects the default simulator and is valid).
func ValidBackend(name string) bool {
	if name == "" {
		return true
	}
	for _, b := range BackendNames() {
		if b == name {
			return true
		}
	}
	return false
}

// DefaultConfig returns Table 3's configuration scaled to nCores cores.
// Per-core queue and cache capacities stay constant as the system scales
// (§6.1): machines below 4 cores use a single tile.
func DefaultConfig(nCores int) Config {
	cpt := 4
	if nCores < 4 {
		cpt = nCores
	}
	if nCores%cpt != 0 {
		panic(fmt.Sprintf("core: %d cores not divisible into %d-core tiles", nCores, cpt))
	}
	tiles := nCores / cpt
	return Config{
		Tiles:              tiles,
		CoresPerTile:       cpt,
		TaskQPerCore:       64,
		CommitQPerCore:     16,
		EnqueueCost:        5,
		DequeueCost:        5,
		FinishCost:         5,
		GVTPeriod:          200,
		TileCheckCost:      5,
		SpillThresholdPct:  75,
		SpillBatch:         15,
		SpillCyclesPerTask: 10,
		MaxChildren:        8,
		Bloom:              bloom.Default(),
		Cache:              cache.DefaultParams(tiles, cpt),
		HopCycles:          3,
		Seed:               1,
		Mapper:             "random",
		MaxCycles:          20_000_000_000,
	}
}

// Cores returns the machine's total core count.
func (c Config) Cores() int { return c.Tiles * c.CoresPerTile }

// TaskQPerTile returns the per-tile task queue capacity.
func (c Config) TaskQPerTile() int { return c.TaskQPerCore * c.CoresPerTile }

// CommitQPerTile returns the per-tile commit queue capacity.
func (c Config) CommitQPerTile() int { return c.CommitQPerCore * c.CoresPerTile }

// Validate normalizes and checks the configuration: machine geometry,
// queue capacities, runtime knobs. NewMachine applies it for the
// simulator; non-simulator backends (internal/rt) call it themselves so
// a bad Config is rejected with an identical error on every backend.
func (c *Config) Validate() error { return c.validate() }

func (c *Config) validate() error {
	if c.Tiles <= 0 || c.CoresPerTile <= 0 {
		return fmt.Errorf("core: invalid machine size %dx%d", c.Tiles, c.CoresPerTile)
	}
	if !ValidBackend(c.Backend) {
		return fmt.Errorf("core: unknown backend %q (valid: %s)", c.Backend, sortedNames(BackendNames()))
	}
	if !c.UnboundedQueues {
		if c.TaskQPerTile() < 2*c.SpillBatch {
			return fmt.Errorf("core: task queue (%d/tile) too small for spill batch %d", c.TaskQPerTile(), c.SpillBatch)
		}
		if c.CommitQPerTile() < 1 {
			return fmt.Errorf("core: commit queue must have at least one entry per tile")
		}
	}
	if c.MaxChildren < 1 {
		return fmt.Errorf("core: MaxChildren must be >= 1")
	}
	if c.LocalEnqueue && c.Mapper != "" && c.Mapper != "random" {
		// LocalEnqueue is an ablation of the random policy; under any
		// other mapper it would be silently ignored, so reject the
		// contradictory pair instead.
		return fmt.Errorf("core: LocalEnqueue only applies to the random mapper, not %q", c.Mapper)
	}
	// Keep cache geometry in sync with the machine size.
	c.Cache.Tiles = c.Tiles
	c.Cache.CoresPerTile = c.CoresPerTile
	return nil
}
