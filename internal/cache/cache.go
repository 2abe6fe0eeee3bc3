// Package cache models the three-level cache hierarchy of the Swarm CMP
// (Fig 2, Table 3): per-core write-through L1Ds, per-tile inclusive L2s, and
// a shared static-NUCA L3 with one bank per tile and an in-cache MESI
// directory (no silent drops). It also implements the pieces of Swarm's
// hierarchical conflict detection that live in the memory system (§4.4):
//
//   - L1s are managed so that L1 load hits are conflict-free (flash-cleared
//     when a core dequeues a smaller virtual time than it last ran).
//   - Each L2 set has a canary virtual time: L2 hits by tasks at or above
//     the canary need no global check.
//   - The L3 directory tracks sharer bits plus LogTM-style memory-backed
//     sticky bits, so global conflict checks only probe tiles whose tasks
//     may have accessed the line.
//
// Caches here carry timing and conflict-filter metadata only. Data lives in
// the flat simulated memory (internal/mem): Swarm's eager versioning writes
// speculative values in place, so there is never a second copy to keep
// coherent.
package cache

import (
	"github.com/swarm-sim/swarm/internal/noc"
	"github.com/swarm-sim/swarm/internal/vt"
)

// Params sizes the hierarchy. Zero values are filled from Table 3 by
// DefaultParams.
type Params struct {
	Tiles        int
	CoresPerTile int

	L1KB      int
	L1Ways    int
	L1Latency uint64

	L2KB      int
	L2Ways    int
	L2Latency uint64

	L3BankKB  int
	L3Ways    int
	L3Latency uint64

	MemLatency uint64

	// CanaryPerLine enables precise per-line canary virtual times instead
	// of the default per-set sharing (§6.3 canary study).
	CanaryPerLine bool

	// ZeroLatency idealizes the memory system: every access and message
	// takes 0 cycles (Table 5's "+ 0-cycle mem system"). Metadata is
	// still maintained so conflict filtering keeps working.
	ZeroLatency bool
}

// DefaultParams returns Table 3's configuration for the given machine size.
func DefaultParams(tiles, coresPerTile int) Params {
	return Params{
		Tiles: tiles, CoresPerTile: coresPerTile,
		L1KB: 16, L1Ways: 8, L1Latency: 2,
		L2KB: 256, L2Ways: 8, L2Latency: 7,
		L3BankKB: 1024, L3Ways: 16, L3Latency: 9,
		MemLatency: 120,
	}
}

const lineBytes = 64

// Access describes one memory access presented to the hierarchy.
type Access struct {
	Core  int    // global core id
	Tile  int    // core's tile
	Line  uint64 // line address (byte address >> 6)
	Write bool
	// Spec marks speculative (Swarm task) accesses: they set sticky bits
	// and participate in canary filtering.
	Spec bool
	VT   vt.Time // the accessing task's virtual time (Spec only)
}

// Result reports timing and which conflict checks the access requires.
// CheckTiles aliases an internal buffer valid until the next Access call.
type Result struct {
	Latency uint64
	L1Hit   bool
	L2Hit   bool
	L3Hit   bool
	// NeedGlobalCheck is set when the access missed in the L2 or hit but
	// failed the canary virtual-time check; the requester must then
	// conflict-check the tiles in CheckTiles (§4.4 step 3).
	NeedGlobalCheck bool
	CheckTiles      []int
}

// Stats counts hierarchy events.
type Stats struct {
	Loads, Stores        uint64
	L1Hits, L2Hits       uint64
	L3Hits, MemAccesses  uint64
	CanaryFails          uint64
	GlobalChecks         uint64
	Invalidations        uint64
	Writebacks           uint64
	L1FlashClears        uint64
	StickyChecksFiltered uint64 // global checks avoided thanks to empty sharer/sticky sets
}

// Sub returns the events counted between the earlier snapshot o and s.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Loads:                s.Loads - o.Loads,
		Stores:               s.Stores - o.Stores,
		L1Hits:               s.L1Hits - o.L1Hits,
		L2Hits:               s.L2Hits - o.L2Hits,
		L3Hits:               s.L3Hits - o.L3Hits,
		MemAccesses:          s.MemAccesses - o.MemAccesses,
		CanaryFails:          s.CanaryFails - o.CanaryFails,
		GlobalChecks:         s.GlobalChecks - o.GlobalChecks,
		Invalidations:        s.Invalidations - o.Invalidations,
		Writebacks:           s.Writebacks - o.Writebacks,
		L1FlashClears:        s.L1FlashClears - o.L1FlashClears,
		StickyChecksFiltered: s.StickyChecksFiltered - o.StickyChecksFiltered,
	}
}

type dirEntry struct {
	sharers uint64 // bitmask of tiles with the line in their L2
	owner   int8   // tile holding the line exclusively, or -1
	sticky  uint64 // bitmask of tiles that may hold speculative state (LogTM)
}

// Hierarchy is the full cache system for one machine.
type Hierarchy struct {
	p    Params
	mesh *noc.Mesh

	l1 []*setAssoc // per core
	l2 []*setAssoc // per tile
	l3 []*setAssoc // per tile (bank)

	canary     [][]vt.Time          // per tile: per L2 set (default) …
	canaryLine []map[uint64]vt.Time // … or per tile: per line (CanaryPerLine)

	dir map[uint64]*dirEntry

	checkBuf []int
	stats    Stats
}

// New builds a hierarchy over the given mesh.
func New(p Params, mesh *noc.Mesh) *Hierarchy {
	h := &Hierarchy{p: p, mesh: mesh, dir: make(map[uint64]*dirEntry)}
	cores := p.Tiles * p.CoresPerTile
	h.l1 = make([]*setAssoc, cores)
	for i := range h.l1 {
		h.l1[i] = newSetAssoc(p.L1KB*1024/lineBytes/p.L1Ways, p.L1Ways)
	}
	h.l2 = make([]*setAssoc, p.Tiles)
	h.l3 = make([]*setAssoc, p.Tiles)
	h.canary = make([][]vt.Time, p.Tiles)
	h.canaryLine = make([]map[uint64]vt.Time, p.Tiles)
	for i := 0; i < p.Tiles; i++ {
		h.l2[i] = newSetAssoc(p.L2KB*1024/lineBytes/p.L2Ways, p.L2Ways)
		h.l3[i] = newSetAssoc(p.L3BankKB*1024/lineBytes/p.L3Ways, p.L3Ways)
		h.canary[i] = make([]vt.Time, h.l2[i].nSets)
		if p.CanaryPerLine {
			h.canaryLine[i] = make(map[uint64]vt.Time)
		}
	}
	h.checkBuf = make([]int, 0, p.Tiles)
	return h
}

// Stats returns accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// bank returns the NUCA home bank (tile) for a line.
func (h *Hierarchy) bank(line uint64) int {
	x := line * 0x9E3779B97F4A7C15
	return int((x >> 40) % uint64(h.p.Tiles))
}

func (h *Hierarchy) entry(line uint64) *dirEntry {
	e, ok := h.dir[line]
	if !ok {
		e = &dirEntry{owner: -1}
		h.dir[line] = e
	}
	return e
}

// Access performs one timed access, updating all metadata, and reports
// which conflict checks the caller must run.
func (h *Hierarchy) Access(a Access) Result {
	if a.Write {
		h.stats.Stores++
	} else {
		h.stats.Loads++
	}
	var r Result
	lat := h.p.L1Latency

	l1 := h.l1[a.Core]
	l1hit := l1.lookup(a.Line)
	r.L1Hit = l1hit

	// Loads that hit the L1 are conflict-free and complete locally.
	if l1hit && !a.Write {
		h.stats.L1Hits++
		r.Latency = h.lat(lat)
		return r
	}

	// L2 (write-through L1s: every store reaches the L2; load misses fill
	// from it).
	tile := a.Tile
	l2 := h.l2[tile]
	set := l2.setOf(a.Line)
	l2hit := l2.lookup(a.Line)
	r.L2Hit = l2hit
	if !l1hit {
		lat += h.p.L2Latency
	}

	canaryOK := true
	if a.Spec && l2hit && a.VT.Less(h.canaryVT(tile, set, a.Line)) {
		// a.VT < canary: a later-VT task installed lines here; an
		// intermediate-VT task elsewhere may have touched the line, so a
		// global check is required (§4.4 "canary virtual time").
		canaryOK = false
		h.stats.CanaryFails++
	}

	e := h.entry(a.Line)
	needDir := !l2hit || (a.Spec && !canaryOK) ||
		(a.Write && (e.sharers&^(1<<uint(tile)) != 0 || (e.owner >= 0 && int(e.owner) != tile)))

	if needDir {
		bank := h.bank(a.Line)
		if !l2hit {
			// Request to home bank; response carries the line.
			lat += 2*h.mesh.Latency(tile, bank) + h.p.L3Latency
			h.mesh.Send(tile, bank, noc.ClassMem, noc.HeaderBytes)
			h.mesh.Send(bank, tile, noc.ClassMem, noc.HeaderBytes+noc.LineBytes)
			l3hit := h.l3[bank].lookup(a.Line)
			r.L3Hit = l3hit
			if l3hit {
				h.stats.L3Hits++
			} else {
				h.stats.MemAccesses++
				lat += h.p.MemLatency + 2*h.mesh.EdgeLatency(bank)
				// Bank <-> edge memory controller traffic.
				h.mesh.Account(bank, noc.ClassMem, noc.HeaderBytes+noc.LineBytes)
				h.installL3(bank, a.Line)
			}
		} else if a.Spec && !canaryOK {
			// Canary failure: consult the directory even on an L2 hit.
			lat += 2 * h.mesh.Latency(tile, bank)
			h.mesh.Send(tile, bank, noc.ClassMem, noc.HeaderBytes)
			h.mesh.Send(bank, tile, noc.ClassMem, noc.HeaderBytes)
		}

		// Coherence actions at the directory.
		if a.Write {
			// Invalidate all other sharers / owner (MESI GetX).
			others := e.sharers &^ (1 << uint(tile))
			if others != 0 || (e.owner >= 0 && int(e.owner) != tile) {
				far := uint64(0)
				for t := 0; t < h.p.Tiles; t++ {
					if t == tile {
						continue
					}
					if others&(1<<uint(t)) != 0 || int(e.owner) == t {
						h.invalidateTileL2(t, a.Line, e)
						h.mesh.Send(bank, t, noc.ClassMem, noc.HeaderBytes)
						h.mesh.Send(t, bank, noc.ClassMem, noc.HeaderBytes)
						if l := h.mesh.Latency(bank, t); l > far {
							far = l
						}
					}
				}
				lat += 2 * far
				h.stats.Invalidations++
			}
			e.owner = int8(tile)
			e.sharers = 1 << uint(tile)
		} else {
			if e.owner >= 0 && int(e.owner) != tile {
				// Downgrade remote owner (GetS to M line): fetch from it.
				ot := int(e.owner)
				lat += 2 * h.mesh.Latency(bank, ot)
				h.mesh.Send(bank, ot, noc.ClassMem, noc.HeaderBytes)
				h.mesh.Send(ot, bank, noc.ClassMem, noc.HeaderBytes+noc.LineBytes)
				h.stats.Writebacks++
				e.owner = -1
			}
			e.sharers |= 1 << uint(tile)
		}
		if a.Spec {
			e.sticky |= 1 << uint(tile)
			// Global conflict check needed: gather candidate tiles.
			r.NeedGlobalCheck = true
			h.checkBuf = h.checkBuf[:0]
			cand := (e.sharers | e.sticky) &^ (1 << uint(tile))
			for t := 0; t < h.p.Tiles; t++ {
				if cand&(1<<uint(t)) != 0 {
					h.checkBuf = append(h.checkBuf, t)
				}
			}
			r.CheckTiles = h.checkBuf
			if len(h.checkBuf) == 0 {
				h.stats.StickyChecksFiltered++
				r.NeedGlobalCheck = false
			} else {
				h.stats.GlobalChecks++
			}
		}
	} else if l2hit {
		h.stats.L2Hits++
	}

	// Fill caches.
	if !l2hit {
		h.installL2(tile, a.Line, a)
	} else if a.Spec {
		h.bumpCanary(tile, set, a.Line, a.VT)
	}
	if !l1hit && !a.Write {
		// Write-no-allocate L1: only loads install.
		h.l1[a.Core].install(a.Line)
	}
	if a.Write {
		// Keep other L1 copies in this tile coherent.
		base := tile * h.p.CoresPerTile
		for c := base; c < base+h.p.CoresPerTile; c++ {
			if c != a.Core {
				h.l1[c].invalidate(a.Line)
			}
		}
		h.l1[a.Core].invalidate(a.Line) // no-allocate: drop stale copy
	}

	r.Latency = h.lat(lat)
	return r
}

func (h *Hierarchy) lat(l uint64) uint64 {
	if h.p.ZeroLatency {
		return 0
	}
	return l
}

func (h *Hierarchy) canaryVT(tile, set int, line uint64) vt.Time {
	if h.p.CanaryPerLine {
		return h.canaryLine[tile][line]
	}
	return h.canary[tile][set]
}

func (h *Hierarchy) bumpCanary(tile, set int, line uint64, v vt.Time) {
	if h.p.CanaryPerLine {
		if m := h.canaryLine[tile]; m[line].Less(v) {
			m[line] = v
		}
		return
	}
	if h.canary[tile][set].Less(v) {
		h.canary[tile][set] = v
	}
}

func (h *Hierarchy) installL2(tile int, line uint64, a Access) {
	victim, evicted := h.l2[tile].install(line)
	if evicted {
		h.evictL2(tile, victim)
	}
	if a.Spec {
		h.bumpCanary(tile, h.l2[tile].setOf(line), line, a.VT)
	}
}

// evictL2 handles an L2 eviction: inclusive L1s drop the line, the
// directory moves the tile's sharer bit to a sticky bit (LogTM: evicted
// speculative state must stay visible to conflict checks).
func (h *Hierarchy) evictL2(tile int, line uint64) {
	base := tile * h.p.CoresPerTile
	for c := base; c < base+h.p.CoresPerTile; c++ {
		h.l1[c].invalidate(line)
	}
	if e, ok := h.dir[line]; ok {
		bit := uint64(1) << uint(tile)
		if e.sharers&bit != 0 {
			e.sharers &^= bit
			e.sticky |= bit
		}
		if int(e.owner) == tile {
			e.owner = -1
			h.stats.Writebacks++
			h.mesh.Send(tile, h.bank(line), noc.ClassMem, noc.HeaderBytes+noc.LineBytes)
		}
	}
}

// invalidateTileL2 drops a line from a tile's L2 (and its L1s) on a remote
// write, moving its sharer bit to sticky.
func (h *Hierarchy) invalidateTileL2(tile int, line uint64, e *dirEntry) {
	h.l2[tile].invalidate(line)
	base := tile * h.p.CoresPerTile
	for c := base; c < base+h.p.CoresPerTile; c++ {
		h.l1[c].invalidate(line)
	}
	bit := uint64(1) << uint(tile)
	if e.sharers&bit != 0 {
		e.sharers &^= bit
		e.sticky |= bit
	}
	if int(e.owner) == tile {
		e.owner = -1
	}
}

// installL3 fills a line into its home bank, recalling L2 copies if the
// inclusive victim is cached above.
func (h *Hierarchy) installL3(bank int, line uint64) {
	victim, evicted := h.l3[bank].install(line)
	if !evicted {
		return
	}
	if e, ok := h.dir[victim]; ok {
		for t := 0; t < h.p.Tiles; t++ {
			if e.sharers&(1<<uint(t)) != 0 {
				h.invalidateTileL2(t, victim, e)
				h.mesh.Send(bank, t, noc.ClassMem, noc.HeaderBytes)
			}
		}
	}
}

// ClearSticky removes a tile's sticky bit for a line; called after a global
// check of that tile found no speculative state (lazy LogTM cleanup).
func (h *Hierarchy) ClearSticky(line uint64, tile int) {
	if e, ok := h.dir[line]; ok {
		e.sticky &^= 1 << uint(tile)
	}
}

// DirTiles returns the sharer|sticky tile bitmask recorded for a line. Undo
// log rollback writes use it to find the tiles whose tasks may have read the
// squashed data (§4.5: rollback writes are normal conflict-checked writes).
func (h *Hierarchy) DirTiles(line uint64) uint64 {
	if e, ok := h.dir[line]; ok {
		return e.sharers | e.sticky
	}
	return 0
}

// FlashClearL1 invalidates every line in a core's L1 (a flash-clear of the
// valid bits, §4.4); done when the core dequeues a smaller virtual time
// than the one it just ran.
func (h *Hierarchy) FlashClearL1(core int) {
	h.l1[core].flashClear()
	h.stats.L1FlashClears++
}

// setAssoc is a set-associative tag array with LRU replacement and
// epoch-based flash clear. All sets share one flat backing array (two
// allocations per cache instead of one per set: machines are built per
// simulation, and per-set slices dominated construction cost).
type setAssoc struct {
	nSets   int
	ways    int
	entries []tagEntry // nSets consecutive windows of ways entries
	size    []uint16   // live entries per set, MRU-first in its window
	epoch   uint32
}

type tagEntry struct {
	line  uint64
	valid bool
	epoch uint32
}

func newSetAssoc(nSets, ways int) *setAssoc {
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	return &setAssoc{
		nSets:   nSets,
		ways:    ways,
		entries: make([]tagEntry, nSets*ways),
		size:    make([]uint16, nSets),
	}
}

func (s *setAssoc) setOf(line uint64) int { return int(line) & (s.nSets - 1) }

// set returns the live window of the line's set.
func (s *setAssoc) set(si int) []tagEntry {
	return s.entries[si*s.ways : si*s.ways+int(s.size[si])]
}

// lookup probes for the line and refreshes LRU on hit.
func (s *setAssoc) lookup(line uint64) bool {
	set := s.set(s.setOf(line))
	for i, e := range set {
		if e.valid && e.epoch == s.epoch && e.line == line {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = e
			return true
		}
	}
	return false
}

// install inserts the line as MRU, returning the evicted line if a valid
// entry was displaced.
func (s *setAssoc) install(line uint64) (victim uint64, evicted bool) {
	si := s.setOf(line)
	set := s.set(si)
	// Drop stale-epoch entries opportunistically.
	w := 0
	for _, e := range set {
		if e.valid && e.epoch == s.epoch {
			set[w] = e
			w++
		}
	}
	set = set[:w]
	if len(set) == s.ways {
		victim = set[len(set)-1].line
		evicted = true
		set = set[:len(set)-1]
	}
	n := len(set) + 1
	set = s.entries[si*s.ways : si*s.ways+n]
	copy(set[1:], set)
	set[0] = tagEntry{line: line, valid: true, epoch: s.epoch}
	s.size[si] = uint16(n)
	return
}

func (s *setAssoc) invalidate(line uint64) {
	set := s.set(s.setOf(line))
	for i := range set {
		if set[i].valid && set[i].line == line {
			set[i].valid = false
			return
		}
	}
}

func (s *setAssoc) flashClear() { s.epoch++ }
