// Command fingerprint runs every registered benchmark on the Swarm machine
// and prints a deterministic digest of the full Stats structure, one line
// per (app, cores) cell.
//
// Its purpose is refactor verification: any change to the simulator that is
// supposed to preserve simulated behaviour (data-structure swaps, host-side
// optimizations) must leave the fingerprint byte-identical. Changes to the
// timing model show up as cycle-count diffs, localized per app.
//
// Usage:
//
//	fingerprint [-scale tiny|small|medium|large] [-cores 1,4,16] [-apps all]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strconv"
	"strings"

	"github.com/swarm-sim/swarm/internal/backend"
	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/harness"
	"github.com/swarm-sim/swarm/internal/noc"
)

func main() {
	scaleFlag := flag.String("scale", "tiny", "input scale: tiny, small, medium or large")
	coresFlag := flag.String("cores", "1,4,16", "comma-separated core counts")
	appsFlag := flag.String("apps", "all", "comma-separated app names, or all")
	mapperFlag := flag.String("mapper", "random",
		"task-mapping policy: "+strings.Join(core.MapperNames(), ", "))
	backendFlag := flag.String("backend", "sim",
		"execution backend: "+strings.Join(backend.Names(), ", ")+
			"; native rt digests cover only the deterministic counters")
	flag.Parse()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	names, cores, err := validate(*appsFlag, *coresFlag, *mapperFlag, *backendFlag)
	if err != nil {
		fatal(err)
	}

	for _, name := range names {
		b, err := bench.New(name, scale)
		if err != nil {
			fatal(err)
		}
		for _, nc := range cores {
			cfg := core.DefaultConfig(nc)
			cfg.Mapper = *mapperFlag
			cfg.Backend = *backendFlag
			lines, err := cellLines(b, nc, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s @%dc: %w", name, nc, err))
			}
			for _, l := range lines {
				fmt.Println(l)
			}
		}
	}
}

// validate checks the selector flags against the registries before any
// cell runs, as the other CLIs do, and returns the app names and core
// counts to sweep.
func validate(apps, cores, mapper, engine string) ([]string, []int, error) {
	names, err := harness.ResolveApps(apps)
	if err != nil {
		return nil, nil, err
	}
	if err := core.CheckMapper(mapper); err != nil {
		return nil, nil, err
	}
	if err := backend.CheckName(engine); err != nil {
		return nil, nil, err
	}
	var counts []int
	for _, f := range strings.Split(cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, nil, fmt.Errorf("bad -cores value %q: %w", f, err)
		}
		if err := harness.ValidateCores(n); err != nil {
			return nil, nil, err
		}
		counts = append(counts, n)
	}
	return names, counts, nil
}

// cellLines fingerprints one (app, cores) cell. Single-phase apps emit
// the cumulative digest; phased (session) apps emit one per-phase digest
// line first, then the cumulative digest of the whole session — a change
// that shifts work between phases while preserving totals still diffs.
func cellLines(b bench.Benchmark, nc int, cfg core.Config) ([]string, error) {
	if cfg.Backend != "" && cfg.Backend != "sim" {
		return nativeCellLines(b, nc, cfg)
	}
	if sb, ok := b.(bench.Sessioned); ok {
		phases, err := bench.RunPhases(sb, cfg)
		if err != nil {
			return nil, err
		}
		var lines []string
		for _, ph := range phases {
			lines = append(lines, phaseDigest(b.Name(), nc, len(phases), ph))
		}
		return append(lines, digest(b.Name(), nc, phases[len(phases)-1].Cumulative)), nil
	}
	st, err := b.RunSwarm(cfg)
	if err != nil {
		return nil, err
	}
	return []string{digest(b.Name(), nc, st)}, nil
}

// nativeCellLines fingerprints one (app, cores) cell run on a native rt
// backend. The rt engines guarantee a deterministic committed schedule —
// commit and enqueue totals are fixed — but aborts and dequeues depend on
// host scheduling, so only the deterministic counters go into the digest.
func nativeCellLines(b bench.Benchmark, nc int, cfg core.Config) ([]string, error) {
	if sb, ok := b.(bench.Sessioned); ok {
		phases, err := bench.RunPhases(sb, cfg)
		if err != nil {
			return nil, err
		}
		var lines []string
		for _, ph := range phases {
			lines = append(lines, fmt.Sprintf("%s cores=%d backend=%s phase=%d/%d commits=%d enq=%d",
				b.Name(), nc, cfg.Backend, ph.Phase, len(phases), ph.Commits, ph.Enqueues))
		}
		return append(lines, nativeDigest(b.Name(), nc, phases[len(phases)-1].Cumulative)), nil
	}
	st, err := b.RunSwarm(cfg)
	if err != nil {
		return nil, err
	}
	return []string{nativeDigest(b.Name(), nc, st)}, nil
}

// nativeDigest is the rt-backend counterpart of digest.
func nativeDigest(app string, cores int, st core.Stats) string {
	return fmt.Sprintf("%s cores=%d backend=%s commits=%d enq=%d",
		app, cores, st.Backend, st.Commits, st.Enqueues)
}

// phaseDigest renders one phase's deterministic counters on one line.
func phaseDigest(app string, cores, nPhases int, ph core.PhaseStats) string {
	return fmt.Sprintf("%s cores=%d phase=%d/%d start=%d end=%d events=%d commits=%d aborts=%d enq=%d deq=%d nacks=%d "+
		"polAborts=%d spilled=%d commitCyc=%d abortCyc=%d spillCyc=%d stallCyc=%d gvt=%d tqOcc=%.6f cqOcc=%.6f traffic=%d",
		app, cores, ph.Phase, nPhases, ph.StartCycle, ph.EndCycle, ph.Events, ph.Commits, ph.Aborts,
		ph.Enqueues, ph.Dequeues, ph.NACKs, ph.PolicyAborts, ph.SpilledTasks,
		ph.CommittedCycles, ph.AbortedCycles, ph.SpillCycles, ph.StallCycles, ph.GVTUpdates,
		ph.AvgTaskQueueOcc, ph.AvgCommitQueueOcc, ph.TotalTrafficBytes())
}

// digest renders every deterministic Stats field on one line, including
// the cache-hierarchy counters (a change that perturbs only cache-level
// accounting must not produce an identical fingerprint) and the mapper
// placement view — FNV digests of the per-tile occupancy and traffic
// vectors, so two runs that differ only in *where* tasks landed cannot
// fingerprint identically.
func digest(app string, cores int, st core.Stats) string {
	c := st.Cache
	return fmt.Sprintf("%s cores=%d events=%d cycles=%d commits=%d aborts=%d enq=%d deq=%d nacks=%d polAborts=%d spilled=%d "+
		"commitCyc=%d abortCyc=%d spillCyc=%d stallCyc=%d bloom=%d vtcmp=%d gvt=%d tqOcc=%.6f cqOcc=%.6f "+
		"trafMem=%d trafEnq=%d trafAbort=%d trafGVT=%d "+
		"ld=%d st=%d l1h=%d l2h=%d l3h=%d mem=%d canary=%d gchk=%d inval=%d wb=%d flash=%d stickyFilt=%d "+
		"mapper=%s tileOcc=%x tileTraf=%x",
		app, cores, st.Events, st.Cycles, st.Commits, st.Aborts, st.Enqueues, st.Dequeues, st.NACKs,
		st.PolicyAborts, st.SpilledTasks,
		st.CommittedCycles, st.AbortedCycles, st.SpillCycles, st.StallCycles,
		st.BloomChecks, st.VTCompares, st.GVTUpdates,
		st.AvgTaskQueueOcc, st.AvgCommitQueueOcc,
		st.TrafficBytes[noc.ClassMem], st.TrafficBytes[noc.ClassEnqueue],
		st.TrafficBytes[noc.ClassAbort], st.TrafficBytes[noc.ClassGVT],
		c.Loads, c.Stores, c.L1Hits, c.L2Hits, c.L3Hits, c.MemAccesses,
		c.CanaryFails, c.GlobalChecks, c.Invalidations, c.Writebacks,
		c.L1FlashClears, c.StickyChecksFiltered,
		st.Mapper, tileOccDigest(st), tileTrafDigest(st))
}

// tileOccDigest folds the per-tile average queue occupancies into one
// FNV-1a word (floats are fingerprinted at micro-occupancy resolution).
func tileOccDigest(st core.Stats) uint64 {
	h := fnv.New64a()
	for i := range st.TileTaskQOcc {
		writeWord(h, uint64(st.TileTaskQOcc[i]*1e6))
		writeWord(h, uint64(st.TileCommitQOcc[i]*1e6))
	}
	return h.Sum64()
}

// tileTrafDigest folds the per-tile injected NoC bytes into one FNV-1a
// word.
func tileTrafDigest(st core.Stats) uint64 {
	h := fnv.New64a()
	for _, b := range st.TileTrafficBytes {
		writeWord(h, b)
	}
	return h.Sum64()
}

func writeWord(h hash.Hash64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fingerprint:", err)
	os.Exit(1)
}
