package bloom

import (
	"encoding/binary"
	"maps"
	"slices"
	"testing"
)

// FuzzFilter fuzzes the signature invariant conflict detection is built
// on (§4.3): no inserted address may ever be reported absent — a false
// negative would let a true conflict commit undetected. The fuzzer drives
// every configuration (three Bloom geometries plus Precise) from two raw
// inputs, each decoded into one line set and inserted into its own
// signature. Insert and MayContain are the reference for the probe path
// the simulator takes: a signature built through InsertProbe must hold
// the same bits, MayContainProbe must answer as MayContain on both
// inputs' lines, and Way0Words must set exactly the bits Probe.Way0 named
// (nil for Precise).
func FuzzFilter(f *testing.F) {
	f.Add([]byte{0}, []byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0xff})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		sets := [2][]uint64{decodeLines(rawA), decodeLines(rawB)}
		var p Probe
		for _, cfg := range configs() {
			for k, lines := range sets {
				ref, sig := NewFilter(cfg), NewFilter(cfg)
				way0 := make([]uint64, (cfg.Way0Bits()+63)/64)
				for _, l := range lines {
					ref.Insert(l)
					p.Fill(cfg, l)
					sig.InsertProbe(&p)
					if !cfg.Precise {
						way0[p.Way0()>>6] |= 1 << (p.Way0() & 63)
					}
				}
				for _, l := range lines {
					if !ref.MayContain(l) {
						t.Fatalf("%v: inserted line %#x reported absent", cfg, l)
					}
				}
				if !slices.Equal(sig.words, ref.words) || !maps.Equal(sig.precise, ref.precise) || sig.Count() != ref.Count() {
					t.Fatalf("%v: InsertProbe and Insert built different signatures", cfg)
				}
				if w0 := sig.Way0Words(); (cfg.Precise && w0 != nil) || !slices.Equal(w0, way0) {
					t.Fatalf("%v: Way0Words = %x, want the probes' way-0 bits %x", cfg, w0, way0)
				}
				for _, l := range slices.Concat(lines, sets[1-k]) {
					p.Fill(cfg, l)
					if got, want := sig.MayContainProbe(&p), ref.MayContain(l); got != want {
						t.Fatalf("%v: line %#x: MayContainProbe = %v, MayContain = %v", cfg, l, got, want)
					}
				}
			}
		}
	})
}

// decodeLines packs fuzzer bytes into line addresses (8 bytes each, the
// ragged tail zero-padded). A one-byte input already yields one line, so
// the fuzzer reaches interesting set shapes quickly.
func decodeLines(raw []byte) []uint64 {
	var lines []uint64
	for i := 0; i < len(raw); i += 8 {
		var buf [8]byte
		copy(buf[:], raw[i:])
		lines = append(lines, binary.LittleEndian.Uint64(buf[:]))
	}
	return lines
}
