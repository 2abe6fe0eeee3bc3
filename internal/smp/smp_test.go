package smp

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
)

func TestThreadsSumDisjoint(t *testing.T) {
	m := NewMachine(8)
	base := m.SetupAlloc(8 * 8)
	st, err := m.Run(func(e guest.ThreadEnv) {
		var s uint64
		for i := 0; i < 100; i++ {
			s += uint64(i)
		}
		e.Store(base+uint64(e.ID())*8, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if got := m.Mem().Load(base + i*8); got != 4950 {
			t.Fatalf("thread %d wrote %d", i, got)
		}
	}
	if st.Cycles == 0 || st.Cores != 8 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFetchAddContention(t *testing.T) {
	m := NewMachine(16)
	ctr := m.SetupAlloc(8)
	_, err := m.Run(func(e guest.ThreadEnv) {
		for i := 0; i < 50; i++ {
			e.FetchAdd(ctr, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem().Load(ctr); got != 16*50 {
		t.Fatalf("counter = %d, want %d", got, 16*50)
	}
}

func TestCASSemantics(t *testing.T) {
	m := NewMachine(4)
	slot := m.SetupAlloc(8)
	wins := m.SetupAlloc(8)
	_, err := m.Run(func(e guest.ThreadEnv) {
		if e.CAS(slot, 0, uint64(e.ID())+1) {
			e.FetchAdd(wins, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem().Load(wins); got != 1 {
		t.Fatalf("CAS winners = %d, want exactly 1", got)
	}
	if m.Mem().Load(slot) == 0 {
		t.Fatal("no thread won the CAS")
	}
}

func TestSerialDirectMode(t *testing.T) {
	m := NewSerialMachine(1)
	a := m.SetupAlloc(80)
	cycles := m.Run(func(e guest.Env) {
		for i := uint64(0); i < 10; i++ {
			e.Store(a+i*8, i*i)
		}
		var s uint64
		for i := uint64(0); i < 10; i++ {
			s += e.Load(a + i*8)
		}
		e.Store(a, s)
		e.Work(100)
	})
	if got := m.Mem().Load(a); got != 285 {
		t.Fatalf("sum = %d, want 285", got)
	}
	if cycles < 100 {
		t.Fatalf("cycles = %d: memory latency not charged", cycles)
	}
	// A second identical loop should be much cheaper (caches warm).
	c2 := m.Run(func(e guest.Env) {
		var s uint64
		for i := uint64(0); i < 10; i++ {
			s += e.Load(a + i*8)
		}
		_ = s
	})
	if c2 >= cycles {
		t.Fatalf("warm run (%d cycles) not faster than cold (%d)", c2, cycles)
	}
}

func TestSerialAllocFree(t *testing.T) {
	m := NewSerialMachine(1)
	var addr uint64
	m.Run(func(e guest.Env) {
		addr = e.Alloc(64)
		e.Store(addr, 1)
		e.Free(addr, 64)
		// Non-speculative free recycles immediately.
		if e.Alloc(64) != addr {
			t.Error("freed block not recycled")
		}
	})
}

// TestSerialAgreesWithSMP1: the direct-mode clock must match the
// event-driven machine for a single-threaded program.
func TestSerialAgreesWithSMP1(t *testing.T) {
	body := func(e guest.Env, base uint64) {
		for i := uint64(0); i < 200; i++ {
			e.Store(base+(i%32)*8, i)
			_ = e.Load(base + ((i*7)%32)*8)
			e.Work(3)
		}
	}
	sm := NewSerialMachine(1)
	sb := sm.SetupAlloc(32 * 8)
	serialCycles := sm.Run(func(e guest.Env) { body(e, sb) })

	em := NewMachine(1)
	eb := em.SetupAlloc(32 * 8)
	st, err := em.Run(func(e guest.ThreadEnv) { body(e, eb) })
	if err != nil {
		t.Fatal(err)
	}
	if serialCycles != st.Cycles {
		t.Fatalf("direct mode %d cycles, event-driven %d", serialCycles, st.Cycles)
	}
}
