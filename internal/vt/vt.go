// Package vt defines unique virtual time, the total order Swarm uses for
// conflict resolution and commits (§4.4). A unique virtual time is the
// tuple (programmer timestamp, nested path, dequeue cycle, tile id); the
// (cycle, tile) pair is unique because at most one dequeue per cycle is
// permitted per tile, so virtual times totally order all dispatched tasks.
//
// The nested path orders fork-join subtasks *within* one programmer
// timestamp slot (see internal/tsdom): a flat task carries the empty
// path and compares exactly as the historical (ts, cycle, tile) triple,
// while a forked subtask sorts after its parent and before the parent's
// next sibling, recursively.
package vt

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/tsdom"
)

// Time is a unique virtual time. The zero value sorts before every
// dispatched task's time.
//
// (Cycle, Tile) is the tiebreaker. The native runtime (internal/rt) has
// no cycles or tiles: it puts each task's enqueue sequence number in
// Cycle and leaves Tile zero, so its tasks order by (TS, Path, sequence).
type Time struct {
	TS    uint64     // programmer-assigned timestamp
	Path  tsdom.Path // nested fork path within the timestamp slot ("" = flat)
	Cycle uint64     // dequeue cycle (or bound cycle for idle tasks)
	Tile  uint32     // dispatching tile id
}

// Infinity sorts after every real virtual time. Its path holds a single
// all-ones level so that even a pathed task at TS = 2^64-1 orders before
// it; the one unreachable corner (a task forked with index 2^64-1 at
// that timestamp) is excluded by guests never using the max timestamp.
var Infinity = Time{TS: ^uint64(0), Path: tsdom.Root.Child(^uint64(0)), Cycle: ^uint64(0), Tile: ^uint32(0)}

// Compare returns -1, 0 or +1 as t orders before, equal to, or after u.
// All ad-hoc virtual-time comparisons route through here so the nested
// path can never be silently dropped from the order.
func Compare(t, u Time) int {
	if t.TS != u.TS {
		if t.TS < u.TS {
			return -1
		}
		return +1
	}
	if c := tsdom.Compare(t.Path, u.Path); c != 0 {
		return c
	}
	if t.Cycle != u.Cycle {
		if t.Cycle < u.Cycle {
			return -1
		}
		return +1
	}
	if t.Tile != u.Tile {
		if t.Tile < u.Tile {
			return -1
		}
		return +1
	}
	return 0
}

// Less reports whether t orders strictly before u. Two flat times skip
// the path comparison.
func (t Time) Less(u Time) bool {
	if t.TS != u.TS {
		return t.TS < u.TS
	}
	if len(t.Path)|len(u.Path) != 0 {
		if c := tsdom.Compare(t.Path, u.Path); c != 0 {
			return c < 0
		}
	}
	if t.Cycle != u.Cycle {
		return t.Cycle < u.Cycle
	}
	return t.Tile < u.Tile
}

// LessEq reports t <= u.
func (t Time) LessEq(u Time) bool { return !u.Less(t) }

// Min returns the smaller of t and u.
func Min(t, u Time) Time {
	if u.Less(t) {
		return u
	}
	return t
}

// Max returns the larger of t and u.
func Max(t, u Time) Time {
	if t.Less(u) {
		return u
	}
	return t
}

func (t Time) String() string {
	if t == Infinity {
		return "(inf)"
	}
	if t.Path.IsRoot() {
		return fmt.Sprintf("(%d,%d,%d)", t.TS, t.Cycle, t.Tile)
	}
	return fmt.Sprintf("(%d@%s,%d,%d)", t.TS, t.Path, t.Cycle, t.Tile)
}
