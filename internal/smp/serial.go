package smp

import (
	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

// SerialMachine runs a single-threaded guest program in direct mode: the
// guest executes inline on the caller's stack and every operation's latency
// accumulates on a clock. This is exact for one thread (nothing can
// interleave) and roughly an order of magnitude faster than the
// event-driven path — the serial baselines are the longest simulations in
// the evaluation (Table 4).
//
// The machine geometry still matters: serial baselines run on a machine of
// the same size as the parallel system under comparison (Fig 12), so a
// 64-core machine's larger L3 benefits the serial run too.
type SerialMachine struct {
	gmem  *mem.Memory
	heap  *mem.Allocator
	hier  *cache.Hierarchy
	clock uint64
}

var _ guest.Env = (*SerialMachine)(nil)

// NewSerialMachine builds a direct-mode machine with the geometry of an
// nCores machine.
func NewSerialMachine(nCores int) *SerialMachine {
	hier, _ := hierarchy(nCores)
	return &SerialMachine{
		gmem: mem.New(),
		heap: mem.NewAllocator(),
		hier: hier,
	}
}

// Mem exposes guest memory for setup and verification.
func (m *SerialMachine) Mem() *mem.Memory { return m.gmem }

// SetupAlloc allocates guest memory with no simulated cost.
func (m *SerialMachine) SetupAlloc(nBytes uint64) uint64 { return m.heap.AllocLineAligned(nBytes) }

// Run executes fn to completion and returns the elapsed cycles.
func (m *SerialMachine) Run(fn func(guest.Env)) uint64 {
	start := m.clock
	fn(m)
	return m.clock - start
}

// Load implements guest.Env.
func (m *SerialMachine) Load(addr uint64) uint64 {
	res := m.hier.Access(cache.Access{Line: mem.Line(addr)})
	m.clock += res.Latency
	return m.gmem.Load(addr)
}

// Store implements guest.Env.
func (m *SerialMachine) Store(addr, val uint64) {
	res := m.hier.Access(cache.Access{Line: mem.Line(addr), Write: true})
	m.clock += res.Latency
	m.gmem.Store(addr, val)
}

// Work implements guest.Env.
func (m *SerialMachine) Work(n uint64) { m.clock += n }

// Alloc implements guest.Env.
func (m *SerialMachine) Alloc(n uint64) uint64 {
	m.clock += mem.AllocCycles
	return m.heap.Alloc(n)
}

// Free implements guest.Env.
func (m *SerialMachine) Free(addr, n uint64) {
	m.clock += mem.AllocCycles
	m.heap.Free(0, addr, n)
	m.heap.ReleaseQuarantine(0)
}
