// Package core implements the Swarm microarchitecture — the paper's primary
// contribution (§4): per-tile hardware task units (task queue, commit queue,
// order queue), speculative out-of-order task dispatch with unique virtual
// times, eager versioning with undo logs, hierarchical Bloom-filter conflict
// detection, selective aborts, scalable GVT-based ordered commits, and
// coalescer/splitter task spilling for bounded queues.
package core

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/noc"
)

// Fixed Table 3 parameters of every machine.
const (
	// Swarm instruction costs: 5 cycles each.
	enqueueCost = 5
	dequeueCost = 5
	finishCost  = 5

	// tileCheckCost is the base cost of a tile conflict check; each
	// virtual-time comparison adds one cycle.
	tileCheckCost = 5

	// spillThresholdPct triggers a coalescer when the task queue passes
	// this occupancy (75%).
	spillThresholdPct = 75

	// spillCyclesPerTask approximates the coalescer/splitter work to move
	// one descriptor to/from memory (a handful of memory accesses).
	spillCyclesPerTask = 10
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

	// GVTPeriod is the cycle interval between GVT updates (Table 3: 200).
	GVTPeriod uint64

	// SpillBatch is the most tasks one coalescer spills (Table 3: 15).
	SpillBatch int

	// Bloom configures conflict-detection signatures (Table 3).
	Bloom bloom.Config

	// Cache configures the memory hierarchy; Tiles/CoresPerTile are
	// copied in. Set Cache.ZeroLatency for Table 5's ideal memory.
	Cache cache.Params

	// Seed drives the random tile selection for task enqueues.
	Seed int64

	// Mapper names the task-mapping policy: which tile each enqueued task
	// lands on. "" or "random" is the paper's uniform-random placement
	// (bit-identical to the pre-mapper machine); see MapperNames for the
	// full policy list.
	Mapper string

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
	// its conservative ordered-scheduling mode. The backend layer
	// (internal/backend) owns the list of names and rejects unknown ones;
	// every engine applies the same Validate rules to the rest.
	Backend string
}

// DefaultConfig returns Table 3's configuration scaled to nCores cores.
// Per-core queue and cache capacities stay constant as the system scales
// (§6.1): machines below 4 cores use a single tile (see noc.Tiling).
func DefaultConfig(nCores int) Config {
	tiles, cpt, ok := noc.Tiling(nCores)
	if !ok {
		panic(fmt.Sprintf("core: %d cores not divisible into %d-core tiles", nCores, noc.CoresPerTile))
	}
	return Config{
		Tiles:          tiles,
		CoresPerTile:   cpt,
		TaskQPerCore:   64,
		CommitQPerCore: 16,
		GVTPeriod:      200,
		SpillBatch:     15,
		Bloom:          bloom.Default(),
		Cache:          cache.DefaultParams(tiles, cpt),
		Seed:           1,
		Mapper:         "random",
		MaxCycles:      20_000_000_000,
	}
}

// Cores returns the machine's total core count.
func (c Config) Cores() int { return c.Tiles * c.CoresPerTile }

// TaskQPerTile returns the per-tile task queue capacity.
func (c Config) TaskQPerTile() int { return c.TaskQPerCore * c.CoresPerTile }

// CommitQPerTile returns the per-tile commit queue capacity.
func (c Config) CommitQPerTile() int { return c.CommitQPerCore * c.CoresPerTile }

// Validate normalizes and checks the configuration: machine geometry,
// queue capacities and the mapper name. NewMachine applies it for the
// simulator and rt.New for the native runtime, so a bad Config is
// rejected with an identical error on every backend. Backend names are
// checked by internal/backend.
func (c *Config) Validate() error { return c.validate() }

func (c *Config) validate() error {
	if c.Tiles <= 0 || c.CoresPerTile <= 0 {
		return fmt.Errorf("core: invalid machine size %dx%d", c.Tiles, c.CoresPerTile)
	}
	if err := CheckMapper(c.Mapper); err != nil {
		return err
	}
	if !c.UnboundedQueues {
		if c.TaskQPerTile() < 2*c.SpillBatch {
			return fmt.Errorf("core: task queue (%d/tile) too small for spill batch %d", c.TaskQPerTile(), c.SpillBatch)
		}
		if c.CommitQPerTile() < 1 {
			return fmt.Errorf("core: commit queue must have at least one entry per tile")
		}
	}
	// Keep cache geometry in sync with the machine size.
	c.Cache.Tiles = c.Tiles
	c.Cache.CoresPerTile = c.CoresPerTile
	return nil
}
