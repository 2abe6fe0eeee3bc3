// Package bloom implements the K-way Bloom-filter read/write-set signatures
// Swarm uses for conflict detection (§4.3–4.4, Fig 6, Fig 8). The default
// configuration matches Table 3: 2048-bit, 8-way filters with H3 hash
// functions (Carter & Wegman). A Precise mode keeps exact line sets, used as
// the "Precise" series of Fig 17(b).
package bloom

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
)

// Config describes a signature implementation.
type Config struct {
	// Bits is the total filter size in bits across all ways.
	Bits int
	// Ways is the number of independently-hashed partitions.
	Ways int
	// Precise selects exact (unbounded) line sets instead of Bloom
	// filters: no false positives, used as the idealized baseline.
	Precise bool
}

// Default is the paper's 2048-bit 8-way configuration.
func Default() Config { return Config{Bits: 2048, Ways: 8} }

func (c Config) String() string {
	if c.Precise {
		return "precise"
	}
	return fmt.Sprintf("%db/%dway", c.Bits, c.Ways)
}

// SizeBytes returns the storage for one signature (Table 2 arithmetic).
func (c Config) SizeBytes() int {
	if c.Precise {
		return 0
	}
	return c.Bits / 8
}

func (c Config) validate() {
	if c.Precise {
		return
	}
	if c.Ways <= 0 || c.Bits <= 0 || c.Bits%c.Ways != 0 {
		panic(fmt.Sprintf("bloom: invalid config %+v", c))
	}
	if w := c.Bits / c.Ways; w&(w-1) != 0 {
		panic(fmt.Sprintf("bloom: bits/way (%d) must be a power of two", w))
	}
}

// hasher holds the H3 hash family for a config: one random 64-row matrix
// per way. H3 hashes x by XOR-ing the rows selected by the set bits of x.
// Matrices are derived from a fixed seed so simulations are deterministic.
type hasher struct {
	wayBits int // log2(bits per way)
	rows    [][]uint32
}

// hasherCache shares the (immutable, deterministically seeded) hash
// matrices between filters. Machines for independent simulations may be
// built from concurrent host goroutines, so access is mutex-guarded.
var (
	hasherMu    sync.Mutex
	hasherCache = map[[2]int]*hasher{}
)

func getHasher(bitsTotal, ways int) *hasher {
	key := [2]int{bitsTotal, ways}
	hasherMu.Lock()
	defer hasherMu.Unlock()
	if h, ok := hasherCache[key]; ok {
		return h
	}
	perWay := bitsTotal / ways
	h := &hasher{wayBits: bits.TrailingZeros(uint(perWay))}
	rng := rand.New(rand.NewSource(0xb100f))
	h.rows = make([][]uint32, ways)
	mask := uint32(perWay - 1)
	for w := range h.rows {
		h.rows[w] = make([]uint32, 64)
		for i := range h.rows[w] {
			h.rows[w][i] = rng.Uint32() & mask
		}
	}
	hasherCache[key] = h
	return h
}

func (h *hasher) hash(way int, x uint64) uint32 {
	var out uint32
	rows := h.rows[way]
	for x != 0 {
		i := bits.TrailingZeros64(x)
		out ^= rows[i]
		x &= x - 1
	}
	return out
}

// Filter is one read- or write-set signature. Insert records a line
// address; MayContain tests membership with no false negatives.
//
// The ways share one flat word array (way-major): signature probes are the
// simulator's hottest loop, and per-way slices cost a pointer chase per
// way.
type Filter struct {
	cfg         Config
	h           *hasher
	words       []uint64 // ways consecutive windows of wordsPerWay words
	wordsPerWay int
	precise     map[uint64]struct{}
	count       int // inserted lines (diagnostics)
}

// NewFilter creates an empty signature for the config.
func NewFilter(cfg Config) *Filter {
	cfg.validate()
	f := &Filter{cfg: cfg}
	if cfg.Precise {
		f.precise = make(map[uint64]struct{})
		return f
	}
	f.h = getHasher(cfg.Bits, cfg.Ways)
	f.wordsPerWay = (cfg.Bits/cfg.Ways + 63) / 64
	f.words = make([]uint64, cfg.Ways*f.wordsPerWay)
	return f
}

// Insert adds a line address to the set.
func (f *Filter) Insert(line uint64) {
	f.count++
	if f.precise != nil {
		f.precise[line] = struct{}{}
		return
	}
	for w := 0; w < f.cfg.Ways; w++ {
		i := f.h.hash(w, line)
		f.words[w*f.wordsPerWay+int(i>>6)] |= 1 << (i & 63)
	}
}

// MayContain reports whether the line may be in the set. False positives
// are possible (unless Precise); false negatives are not.
func (f *Filter) MayContain(line uint64) bool {
	if f.precise != nil {
		_, ok := f.precise[line]
		return ok
	}
	for w := 0; w < f.cfg.Ways; w++ {
		i := f.h.hash(w, line)
		if f.words[w*f.wordsPerWay+int(i>>6)]&(1<<(i&63)) == 0 {
			return false
		}
	}
	return true
}

// Probe is a precomputed membership query for one line. The H3 hash
// indices depend only on (config, line) — not on filter contents — so one
// Fill answers MayContain against every filter sharing the config. The
// conflict-check hot path probes a dozen signatures per access with the
// same line; precomputing turns each probe into a few bit tests.
//
// The zero value is ready; Fill reuses the Probe's storage.
type Probe struct {
	cfg  Config
	h    *hasher
	line uint64
	pw   []probeWord // precomputed flat word index + bit mask, one per way
	way0 uint32      // bit index within way 0 (see Way0)
}

// Way0 returns the line's bit index within way 0 — the key external
// candidate indexes (per-tile way-0 bitmaps) use to pre-filter signature
// probes: a filter whose way-0 bit for this index is clear cannot contain
// the line. Meaningless for Precise configs.
func (p *Probe) Way0() uint32 { return p.way0 }

// Way0Words returns the filter's way-0 words: bit i (word i>>6, bit
// i&63) is set exactly when an inserted line's Probe.Way0 is i. Nil for
// Precise filters. The slice aliases the filter, so Insert and Clear
// change it.
func (f *Filter) Way0Words() []uint64 { return f.words[:f.wordsPerWay] }

// Way0Bits returns the number of way-0 bit indexes (bits per way) for a
// non-Precise config.
func (c Config) Way0Bits() int {
	if c.Precise {
		return 0
	}
	return c.Bits / c.Ways
}

type probeWord struct {
	wi   int32
	mask uint64
}

// Fill prepares the probe to query line under config c.
func (p *Probe) Fill(c Config, line uint64) {
	if p.cfg != c || (p.h == nil && !c.Precise) {
		c.validate()
		p.cfg = c
		p.h = nil
		if !c.Precise {
			p.h = getHasher(c.Bits, c.Ways)
		}
	}
	p.line = line
	if p.h == nil {
		return
	}
	p.pw = p.pw[:0]
	wordsPerWay := (c.Bits/c.Ways + 63) / 64
	for w := 0; w < c.Ways; w++ {
		i := p.h.hash(w, line)
		p.pw = append(p.pw, probeWord{wi: int32(w*wordsPerWay) + int32(i>>6), mask: 1 << (i & 63)})
		if w == 0 {
			p.way0 = i
		}
	}
}

// MayContainProbe is MayContain against a precomputed probe. The filter
// must share the probe's configuration. The common path (Bloom signature,
// matching config) stays under the inlining budget; precise filters and
// config mismatches divert to probeRare.
func (f *Filter) MayContainProbe(p *Probe) bool {
	if f.count == 0 {
		return false // empty signature: no bits set, no members
	}
	if f.precise != nil || f.h != p.h {
		return f.probeRare(p)
	}
	for _, pw := range p.pw {
		if f.words[pw.wi]&pw.mask == 0 {
			return false
		}
	}
	return true
}

func (f *Filter) probeRare(p *Probe) bool {
	if f.precise != nil {
		_, ok := f.precise[p.line]
		return ok
	}
	// The hasher is interned per config, so an identity mismatch means the
	// probe was filled for a different configuration.
	panic(fmt.Sprintf("bloom: probing config %v with probe for %v", f.cfg, p.cfg))
}

// InsertProbe adds the probe's line to the set, reusing the probe's hash
// work (the conflict-check path probes a line and then inserts it into the
// accessor's own signature).
func (f *Filter) InsertProbe(p *Probe) {
	f.count++
	if f.precise != nil {
		f.precise[p.line] = struct{}{}
		return
	}
	if f.h != p.h {
		panic(fmt.Sprintf("bloom: inserting config %v with probe for %v", f.cfg, p.cfg))
	}
	for _, pw := range p.pw {
		f.words[pw.wi] |= pw.mask
	}
}

// Clear empties the signature (a flash-clear in hardware).
func (f *Filter) Clear() {
	f.count = 0
	if f.precise != nil {
		clear(f.precise)
		return
	}
	clear(f.words)
}

// Count returns the number of Insert calls since the last Clear.
func (f *Filter) Count() int { return f.count }
