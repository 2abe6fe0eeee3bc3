package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/swarm-sim/swarm/internal/guest"
)

// Task mapping: the policy that picks the destination tile for every
// enqueued task. The paper's design load-balances through uniform-random
// enqueues (§7: "distributed priority queues, load-balanced through random
// enqueues"); follow-up data-centric work shows that spatial hints — a
// stable application-level key sent with the descriptor — recover locality
// the random policy throws away. The mapper is chosen per machine via
// Config.Mapper and is the first knob in this codebase that changes
// simulated-machine performance rather than host performance.
//
// Policies:
//
//	random  uniform-random tile per enqueue (the paper's design; default,
//	        bit-identical to the pre-mapper machine)
//	hint    send hinted tasks to hash(hint key) % tiles, so all work on
//	        one key shares a home tile; hintless tasks stay local

// mapper is the per-machine task-mapping policy.
type mapper interface {
	name() string
	// place returns the destination tile for d, enqueued from tile src
	// (src < 0 for root enqueues).
	place(m *Machine, d guest.TaskDesc, src int) int
}

// MapperNames lists the registered task-mapping policies (the valid
// Config.Mapper / -mapper values), default first.
func MapperNames() []string { return []string{"random", "hint"} }

// CheckMapper reports whether name selects a task-mapping policy (""
// selects random and is valid); the error lists the valid names.
// Config.Validate applies it, so every engine rejects an unknown mapper
// with the same error.
func CheckMapper(name string) error {
	if name == "" || slices.Contains(MapperNames(), name) {
		return nil
	}
	valid := MapperNames()
	slices.Sort(valid)
	return fmt.Errorf("core: unknown mapper %q (valid: %s)", name, strings.Join(valid, ", "))
}

// newMapper builds the policy named by cfg.Mapper ("" selects random).
func newMapper(name string) (mapper, error) {
	if err := CheckMapper(name); err != nil {
		return nil, err
	}
	if name == "hint" {
		return &hintMapper{}, nil
	}
	return &randomMapper{}, nil
}

// randomMapper reproduces the paper's uniform-random enqueue placement.
type randomMapper struct{}

func (*randomMapper) name() string { return "random" }

func (*randomMapper) place(m *Machine, _ guest.TaskDesc, _ int) int {
	return m.rng.Intn(m.cfg.Tiles)
}

// hintTile is the home tile of a spatial hint key: a fixed 64-bit mix
// (splitmix64's finalizer) spreads keys uniformly while keeping every task
// carrying the same key on the same tile.
func hintTile(key uint64, tiles int) int {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return int(key % uint64(tiles))
}

// hintMapper sends hinted tasks to their key's home tile and keeps
// hintless tasks (spawners, continuations) on the enqueuing tile; hintless
// roots fall back to round-robin so the roots still seed every tile.
type hintMapper struct{ rootRR int }

func (*hintMapper) name() string { return "hint" }

func (h *hintMapper) place(m *Machine, d guest.TaskDesc, src int) int {
	if key, ok := d.HintKey(); ok {
		return hintTile(key, m.cfg.Tiles)
	}
	if src >= 0 {
		return src
	}
	t := h.rootRR
	h.rootRR++
	if h.rootRR == m.cfg.Tiles {
		h.rootRR = 0
	}
	return t
}
