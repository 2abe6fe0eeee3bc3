// Package smp models the same CMP as the Swarm machine (Table 3 cores,
// caches, NoC) running ordinary software threads instead of hardware tasks.
// The serial and software-parallel baselines of §6.2 run here, so their
// synchronization, sharing and locality costs are physically modeled by the
// same memory hierarchy Swarm uses.
package smp

import (
	"errors"
	"fmt"

	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
	"github.com/swarm-sim/swarm/internal/noc"
	"github.com/swarm-sim/swarm/internal/sim"
)

// Config sizes the baseline machine; DefaultConfig mirrors Table 3 scaled
// to nCores (same scaling rule as the Swarm machine: constant per-core
// cache capacity).
type Config struct {
	Tiles        int
	CoresPerTile int
	Cache        cache.Params
	HopCycles    uint64
	// AtomicCost is the extra cost of an atomic read-modify-write over a
	// plain store (reservation + retry window).
	AtomicCost uint64
	MaxCycles  uint64
}

// DefaultConfig returns the Table 3 machine scaled to nCores.
func DefaultConfig(nCores int) Config {
	cpt := 4
	if nCores < 4 {
		cpt = nCores
	}
	if nCores%cpt != 0 {
		panic(fmt.Sprintf("smp: %d cores not divisible into tiles", nCores))
	}
	tiles := nCores / cpt
	return Config{
		Tiles:        tiles,
		CoresPerTile: cpt,
		Cache:        cache.DefaultParams(tiles, cpt),
		HopCycles:    3,
		AtomicCost:   4,
		MaxCycles:    2_000_000_000_000,
	}
}

// Cores returns the machine's core (= thread) count.
func (c Config) Cores() int { return c.Tiles * c.CoresPerTile }

// Stats summarizes a baseline run.
type Stats struct {
	Cycles uint64
	Cores  int
}

// Machine runs one thread per core against the simulated hierarchy.
type Machine struct {
	cfg  Config
	eng  sim.Engine
	gmem *mem.Memory
	heap *mem.Allocator
	hier *cache.Hierarchy

	threads []*thread
	live    int
}

type thread struct {
	id   int
	tile int
	co   *guest.Coroutine
}

// NewMachine builds a baseline machine. setup initializes guest memory
// (untimed, like Swarm's Setup).
func NewMachine(cfg Config) *Machine {
	cfg.Cache.Tiles = cfg.Tiles
	cfg.Cache.CoresPerTile = cfg.CoresPerTile
	return &Machine{
		cfg:  cfg,
		gmem: mem.New(),
		heap: mem.NewAllocator(),
		hier: cache.New(cfg.Cache, noc.New(cfg.Tiles, cfg.HopCycles)),
	}
}

// Mem exposes guest memory for setup and verification.
func (m *Machine) Mem() *mem.Memory { return m.gmem }

// SetupAlloc allocates guest memory with no simulated cost.
func (m *Machine) SetupAlloc(nBytes uint64) uint64 { return m.heap.AllocLineAligned(nBytes) }

// Run launches one thread per core running fn and waits for all of them.
func (m *Machine) Run(fn guest.ThreadFn) (Stats, error) {
	n := m.cfg.Cores()
	m.threads = make([]*thread, n)
	m.live = n
	for i := 0; i < n; i++ {
		th := &thread{id: i, tile: i / m.cfg.CoresPerTile}
		th.co = guest.StartThread(fn, i, n)
		m.threads[i] = th
		m.eng.At(0, func() { m.resume(th, guest.Result{}) })
	}
	if err := m.eng.Run(m.cfg.MaxCycles); err != nil {
		return Stats{}, fmt.Errorf("smp: %w", err)
	}
	if m.live != 0 {
		return Stats{}, errors.New("smp: threads deadlocked")
	}
	return Stats{Cycles: m.eng.Now(), Cores: n}, nil
}

func (m *Machine) resume(th *thread, r guest.Result) {
	op := th.co.Resume(r)
	m.handleOp(th, op)
}

func (m *Machine) access(th *thread, line uint64, write bool) uint64 {
	res := m.hier.Access(cache.Access{
		Core: th.id, Tile: th.tile, Line: line, Write: write,
	})
	return res.Latency
}

func (m *Machine) handleOp(th *thread, op guest.Op) {
	switch op.Kind {
	case guest.OpWork:
		m.eng.After(op.N, func() { m.resume(th, guest.Result{}) })

	case guest.OpLoad:
		lat := m.access(th, mem.Line(op.Addr), false)
		val := m.gmem.Load(op.Addr)
		m.eng.After(lat, func() { m.resume(th, guest.Result{Val: val}) })

	case guest.OpStore:
		lat := m.access(th, mem.Line(op.Addr), true)
		m.gmem.Store(op.Addr, op.Val)
		m.eng.After(lat, func() { m.resume(th, guest.Result{}) })

	case guest.OpCAS:
		lat := m.access(th, mem.Line(op.Addr), true) + m.cfg.AtomicCost
		ok := false
		if m.gmem.Load(op.Addr) == op.Old {
			m.gmem.Store(op.Addr, op.Val)
			ok = true
		}
		m.eng.After(lat, func() { m.resume(th, guest.Result{OK: ok}) })

	case guest.OpFetchAdd:
		lat := m.access(th, mem.Line(op.Addr), true) + m.cfg.AtomicCost
		old := m.gmem.Load(op.Addr)
		m.gmem.Store(op.Addr, old+op.Val)
		m.eng.After(lat, func() { m.resume(th, guest.Result{Val: old}) })

	case guest.OpAlloc:
		addr := m.heap.Alloc(op.N)
		m.eng.After(mem.AllocCycles, func() { m.resume(th, guest.Result{Val: addr}) })

	case guest.OpFree:
		// Non-speculative: recycle immediately (token 0, released now).
		m.heap.Free(0, op.Addr, op.N)
		m.heap.ReleaseQuarantine(0)
		m.eng.After(mem.AllocCycles, func() { m.resume(th, guest.Result{}) })

	case guest.OpDone:
		m.live--

	default:
		panic(fmt.Sprintf("smp: unsupported op %v", op.Kind))
	}
}
