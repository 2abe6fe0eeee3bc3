package bloom

import (
	"encoding/binary"
	"testing"
)

// FuzzFilter fuzzes the signature invariant conflict detection is built
// on (§4.3): no inserted address may ever be reported absent — a false
// negative would let a true conflict commit undetected. The fuzzer drives
// every configuration (three Bloom geometries plus Precise) from two raw
// inputs, each decoded into one line set and inserted into its own
// signature.
func FuzzFilter(f *testing.F) {
	f.Add([]byte{0}, []byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0xff})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		for _, cfg := range configs() {
			for _, lines := range [][]uint64{decodeLines(rawA), decodeLines(rawB)} {
				sig := NewFilter(cfg)
				for _, l := range lines {
					sig.Insert(l)
				}
				for _, l := range lines {
					if !sig.MayContain(l) {
						t.Fatalf("%v: inserted line %#x reported absent", cfg, l)
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
