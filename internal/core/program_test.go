package core

import "github.com/swarm-sim/swarm/internal/guest"

// Program is a test program: a positional function table plus a Setup
// hook that lays out guest memory and enqueues the root tasks — what
// backend.New gets from an application's build function.
type Program struct {
	Fns   []guest.TaskFn
	Setup func(*Machine)
}

// loadProgram builds a machine for cfg, runs prog's Setup on it and
// installs its functions, in backend.New's order. The machine is parked
// before its first phase.
func loadProgram(cfg Config, prog *Program) (*Machine, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	prog.Setup(m)
	m.fns = prog.Fns
	return m, nil
}

// EnqueueRoot inserts a parentless task with up to three argument words.
func (m *Machine) EnqueueRoot(fn guest.FnID, ts uint64, args ...uint64) {
	if len(args) > 3 {
		panic("core: root tasks take at most 3 argument words")
	}
	d := guest.TaskDesc{Fn: fn, TS: ts}
	copy(d.Args[:], args)
	m.EnqueueRootDesc(d)
}

// Run executes a loaded program to completion in one phase and returns
// the cumulative statistics.
func (m *Machine) Run() (Stats, error) {
	ph, err := m.RunPhase()
	if err != nil {
		return Stats{}, err
	}
	return ph.Cumulative, nil
}
