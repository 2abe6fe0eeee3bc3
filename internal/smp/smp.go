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

const (
	// atomicCost is the extra cost of an atomic read-modify-write over a
	// plain store (reservation + retry window).
	atomicCost = 4
	// maxCycles aborts a run that exceeds it: a safety net against
	// livelock bugs in baseline programs.
	maxCycles = 2_000_000_000_000
)

// hierarchy builds the Table 3 memory hierarchy of an nCores machine,
// tiled as the Swarm machine is (noc.Tiling), so per-core cache capacity
// stays constant as the machine scales.
func hierarchy(nCores int) (h *cache.Hierarchy, coresPerTile int) {
	tiles, cpt, ok := noc.Tiling(nCores)
	if !ok {
		panic(fmt.Sprintf("smp: %d cores not divisible into tiles", nCores))
	}
	return cache.New(cache.DefaultParams(tiles, cpt), noc.New(tiles)), cpt
}

// Stats summarizes a baseline run.
type Stats struct {
	Cycles uint64
	Cores  int
}

// Machine runs one thread per core against the simulated hierarchy.
type Machine struct {
	cores        int
	coresPerTile int

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

// NewMachine builds a baseline machine of nCores cores: the Table 3
// machine scaled to nCores.
func NewMachine(nCores int) *Machine {
	hier, cpt := hierarchy(nCores)
	return &Machine{
		cores:        nCores,
		coresPerTile: cpt,
		gmem:         mem.New(),
		heap:         mem.NewAllocator(),
		hier:         hier,
	}
}

// Mem exposes guest memory for setup and verification.
func (m *Machine) Mem() *mem.Memory { return m.gmem }

// SetupAlloc allocates guest memory with no simulated cost.
func (m *Machine) SetupAlloc(nBytes uint64) uint64 { return m.heap.AllocLineAligned(nBytes) }

// Run launches one thread per core running fn and waits for all of them.
func (m *Machine) Run(fn guest.ThreadFn) (Stats, error) {
	n := m.cores
	m.threads = make([]*thread, n)
	m.live = n
	for i := 0; i < n; i++ {
		th := &thread{id: i, tile: i / m.coresPerTile}
		th.co = guest.StartThread(fn, i, n)
		m.threads[i] = th
		m.eng.At(0, func() { m.resume(th, guest.Result{}) })
	}
	if err := m.eng.Run(maxCycles); err != nil {
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
		lat := m.access(th, mem.Line(op.Addr), true) + atomicCost
		ok := false
		if m.gmem.Load(op.Addr) == op.Old {
			m.gmem.Store(op.Addr, op.Val)
			ok = true
		}
		m.eng.After(lat, func() { m.resume(th, guest.Result{OK: ok}) })

	case guest.OpFetchAdd:
		lat := m.access(th, mem.Line(op.Addr), true) + atomicCost
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
