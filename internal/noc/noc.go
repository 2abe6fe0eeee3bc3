// Package noc models the on-chip mesh network: X-Y routed, 3 cycles/hop,
// 256-bit links (Table 3). The NoC provides point-to-point latencies for the
// cache hierarchy and task units, and accounts injected traffic per tile by
// message class so Fig 16 can be regenerated.
//
// Like the paper's model, the mesh is a latency/bandwidth-accounting model:
// injection rates in the evaluation stay well below saturation (§6.3), so
// contention is not modeled.
package noc

import "fmt"

// Class labels a message for traffic accounting (Fig 16's breakdown).
type Class int

const (
	// ClassMem is memory traffic between L2s, L3 banks and memory
	// controllers during normal execution.
	ClassMem Class = iota
	// ClassEnqueue is task-enqueue traffic (descriptors and acks, Fig 5).
	ClassEnqueue
	// ClassAbort is abort traffic: child-abort notifications and rollback
	// memory accesses (§4.5).
	ClassAbort
	// ClassGVT is global-virtual-time protocol traffic (Fig 9).
	ClassGVT
	NumClasses
)

var classNames = [NumClasses]string{"mem", "enqueue", "abort", "gvt"}

func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Message sizes in bytes. A task descriptor is 51B (Table 2); control
// messages are a header flit.
const (
	HeaderBytes   = 8
	LineBytes     = 64
	TaskDescBytes = 51
	AckBytes      = 13
	AbortMsgBytes = 16
	GVTMsgBytes   = 16
)

// HopCycles is the per-hop link latency (Table 3: 3 cycles).
const HopCycles = 3

// CoresPerTile is the number of cores sharing one mesh tile (Table 3 and
// Fig 2: 4).
const CoresPerTile = 4

// Tiling splits an nCores CMP into tiles of CoresPerTile cores; machines
// under CoresPerTile cores are one smaller tile. ok is false when nCores
// cannot be tiled (not positive, or above CoresPerTile and not a multiple
// of it).
func Tiling(nCores int) (tiles, coresPerTile int, ok bool) {
	if nCores < 1 {
		return 0, 0, false
	}
	cpt := min(nCores, CoresPerTile)
	return nCores / cpt, cpt, nCores%cpt == 0
}

// Mesh is a W×H mesh of tiles with X-Y dimension-order routing.
type Mesh struct {
	width, height int
	tiles         int
	injected      [][NumClasses]uint64 // per source tile, bytes
	messages      [][NumClasses]uint64 // per source tile, message count
}

// New builds the smallest W×H mesh (W >= H, W-H <= 1 pattern: nearly
// square) that holds nTiles tiles.
func New(nTiles int) *Mesh {
	if nTiles < 1 {
		panic("noc: need at least one tile")
	}
	w := 1
	for w*w < nTiles {
		w++
	}
	h := (nTiles + w - 1) / w
	return &Mesh{
		width: w, height: h, tiles: nTiles,
		injected: make([][NumClasses]uint64, nTiles),
		messages: make([][NumClasses]uint64, nTiles),
	}
}

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.tiles }

// Dims returns the mesh dimensions.
func (m *Mesh) Dims() (w, h int) { return m.width, m.height }

func (m *Mesh) coord(tile int) (x, y int) { return tile % m.width, tile / m.width }

// Hops returns the X-Y route length between two tiles.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := m.coord(a)
	bx, by := m.coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the cycle cost of a one-way message from tile a to b.
func (m *Mesh) Latency(a, b int) uint64 { return uint64(m.Hops(a, b)) * HopCycles }

// EdgeLatency returns the latency from a tile to the nearest chip edge
// (memory controllers sit at the edges, Table 3).
func (m *Mesh) EdgeLatency(tile int) uint64 {
	x, y := m.coord(tile)
	d := x
	if r := m.width - 1 - x; r < d {
		d = r
	}
	if y < d {
		d = y
	}
	if r := m.height - 1 - y; r < d {
		d = r
	}
	return uint64(d) * HopCycles
}

// Send accounts a message of the given class and size injected at src and
// returns its delivery latency. Self-sends are free (no injection).
func (m *Mesh) Send(src, dst int, class Class, bytes int) uint64 {
	if src == dst {
		return 0
	}
	m.injected[src][class] += uint64(bytes)
	m.messages[src][class]++
	return m.Latency(src, dst)
}

// Account records injected bytes without computing a latency (e.g. for
// broadcast-style GVT updates where latency is absorbed by the period).
func (m *Mesh) Account(src int, class Class, bytes int) {
	m.injected[src][class] += uint64(bytes)
	m.messages[src][class]++
}

// InjectedBytes returns bytes injected at the tile, by class.
func (m *Mesh) InjectedBytes(tile int) [NumClasses]uint64 { return m.injected[tile] }

// TotalBytes returns chip-wide injected bytes by class.
func (m *Mesh) TotalBytes() (tot [NumClasses]uint64) {
	for _, t := range m.injected {
		for c := range t {
			tot[c] += t[c]
		}
	}
	return
}

// TotalMessages returns chip-wide message counts by class.
func (m *Mesh) TotalMessages() (tot [NumClasses]uint64) {
	for _, t := range m.messages {
		for c := range t {
			tot[c] += t[c]
		}
	}
	return
}
