// Package harness runs the paper's experiments: it drives the benchmark
// suite across machine sizes and configurations and produces the data
// behind every table and figure in the evaluation (§6), formatted as the
// same rows/series the paper reports.
//
// Sweeps are scheduled by a host-side worker pool (Pool): every (app,
// cores, config) simulation is independent, so the harness fans them out
// over goroutines and collects results by index. Output is byte-identical
// for any worker count; shared points (serial baselines, default-config
// runs) are computed once through deduplicating caches.
package harness

import (
	"fmt"
	"math"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/oracle"
)

// Suite is every registered benchmark at a given scale, in registry
// order. Its sweep methods are safe for the suite's own internal
// parallelism but a Suite is not meant to be driven from multiple
// goroutines at once.
type Suite struct {
	Scale      bench.Scale
	Benchmarks []bench.Benchmark

	pool *Pool

	// mapperName, when set, overrides the task-mapping policy of every
	// Swarm configuration the suite builds (see SetMapper).
	mapperName string

	// backendName, when set, selects the execution engine of every Swarm
	// run the suite builds (see SetBackend).
	backendName string

	// Deduplicating caches shared by concurrent sweep workers.
	serialCycles Memo[appCoresKey, uint64]     // serial baselines
	defaultRuns  Memo[appCoresKey, core.Stats] // default-config Swarm runs
	silos        Memo[siloKey, *bench.Silo]    // Fig 13 inputs
}

type appCoresKey struct {
	app   string
	cores int
}

type siloKey struct{ warehouses, txns int }

// NewSuite builds the suite by enumerating the bench registry: every
// registered app, constructed at the given scale, in registry order. New
// apps appear in every sweep, table and CSV without touching the harness.
// The suite starts sequential; see SetWorkers.
func NewSuite(s bench.Scale) *Suite {
	return &Suite{Scale: s, Benchmarks: bench.NewSuite(s), pool: NewPool(1)}
}

// SetWorkers sets how many simulations the suite runs concurrently on the
// host (n <= 0 selects runtime.NumCPU, n == 1 is strictly sequential).
// Results are identical for every worker count.
func (s *Suite) SetWorkers(n int) { s.pool.SetWorkers(n) }

// Workers returns the suite's host-parallelism.
func (s *Suite) Workers() int { return s.pool.Workers() }

// SetProgress installs a per-task progress observer on the scheduler.
func (s *Suite) SetProgress(fn ProgressFunc) { s.pool.SetProgress(fn) }

// SetMapper sets the task-mapping policy every Swarm run of the suite uses
// ("" or "random" keeps the paper's uniform-random placement). Call before
// any sweep: the deduplicating run caches key on (app, cores) only.
func (s *Suite) SetMapper(name string) { s.mapperName = name }

// SetBackend selects the execution engine of every Swarm run the suite
// builds ("" or "sim" keeps the cycle-level simulator; see
// core.BackendNames). Note that cycle-based metrics are all zero under
// the native backends, so sweeps that chart cycles are only meaningful
// on the simulator. Call before any sweep: the deduplicating run caches
// key on (app, cores) only.
func (s *Suite) SetBackend(name string) { s.backendName = name }

// config returns the suite's Swarm machine configuration for a core count:
// Table 3 defaults plus the suite-wide mapper and backend overrides.
func (s *Suite) config(cores int) core.Config {
	cfg := core.DefaultConfig(cores)
	if s.mapperName != "" {
		cfg.Mapper = s.mapperName
	}
	cfg.Backend = s.backendName
	return cfg
}

// Serial returns serial cycles for an app on an nCores-sized machine,
// computed at most once per (app, cores) across all concurrent workers.
func (s *Suite) Serial(b bench.Benchmark, nCores int) (uint64, error) {
	cyc, _, err := s.serialCycles.Do(appCoresKey{b.Name(), nCores}, func() (uint64, error) {
		return b.RunSerial(nCores)
	})
	return cyc, err
}

// defaultRun returns the Swarm run of b under the unmodified default
// configuration, computed at most once per (app, cores): the scaling
// series, Table 5's baseline variant and every sweep's reference point
// all share these runs.
func (s *Suite) defaultRun(b bench.Benchmark, nCores int) (core.Stats, error) {
	st, _, err := s.defaultRuns.Do(appCoresKey{b.Name(), nCores}, func() (core.Stats, error) {
		return b.RunSwarm(s.config(nCores))
	})
	return st, err
}

// silo returns the Fig 13 benchmark instance for a warehouse count,
// built at most once.
func (s *Suite) silo(warehouses, txns int) *bench.Silo {
	b, _, _ := s.silos.Do(siloKey{warehouses, txns}, func() (*bench.Silo, error) {
		return bench.NewSilo(warehouses, txns, 7), nil
	})
	return b
}

func gmean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// ratio divides two cycle counts, mapping a zero denominator to 0 instead
// of NaN/Inf: degenerate runs (an app whose measured region is empty) must
// emit well-formed numbers into every CSV and table.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---------------------------------------------------------------- Table 1 --

// Table1Row is one application's column in Table 1.
type Table1Row struct {
	App            string
	MaxParallelism float64
	Window1K       float64
	Window64       float64
	Instrs         oracle.Stat
	Reads          oracle.Stat
	Writes         oracle.Stat
	MaxTLS         float64
}

// Table1 runs the oracle analysis for every benchmark in parallel.
// maxTasks bounds the profiled task count (0 = all).
func (s *Suite) Table1(maxTasks int) []Table1Row {
	rows := make([]Table1Row, len(s.Benchmarks))
	s.pool.Run(len(s.Benchmarks),
		func(i int) string { return "table1 " + s.Benchmarks[i].Name() },
		func(i int) error {
			b := s.Benchmarks[i]
			p := oracle.ProfileTasks(b.SwarmApp().Build, maxTasks)
			tls := oracle.ProfileSerial(b.SerialApp().Build, maxTasks)
			rows[i] = Table1Row{
				App:            b.Name(),
				MaxParallelism: p.MaxParallelism(),
				Window1K:       p.WindowParallelism(1024),
				Window64:       p.WindowParallelism(64),
				Instrs:         p.InstrStats(),
				Reads:          p.ReadStats(),
				Writes:         p.WriteStats(),
				MaxTLS:         tls.MaxParallelism(),
			}
			return nil
		})
	return rows
}

// --------------------------------------------------------------- Fig 11/12 --

// ScalingPoint is one (app, cores) measurement.
type ScalingPoint struct {
	Cores          int
	SwarmCycles    uint64
	SerialCycles   uint64
	ParallelCycles uint64 // 0 if no software-parallel version
	Stats          core.Stats
}

// ScalingResult is an app's scaling series (Fig 11/12).
type ScalingResult struct {
	App    string
	Points []ScalingPoint
}

// SelfRelative returns Fig 11's series: speedup over 1-core Swarm.
func (r ScalingResult) SelfRelative() []float64 {
	out := make([]float64, len(r.Points))
	if len(r.Points) == 0 {
		return out
	}
	base := float64(r.Points[0].SwarmCycles) // first point is the base
	for i, p := range r.Points {
		out[i] = ratio(base, float64(p.SwarmCycles))
	}
	return out
}

// VsSerial returns Fig 12's Swarm series: speedup over the tuned serial
// version on a same-sized machine.
func (r ScalingResult) VsSerial() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = ratio(float64(p.SerialCycles), float64(p.SwarmCycles))
	}
	return out
}

// ParallelVsSerial returns Fig 12's software-parallel series.
func (r ScalingResult) ParallelVsSerial() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		if p.ParallelCycles > 0 {
			out[i] = ratio(float64(p.SerialCycles), float64(p.ParallelCycles))
		}
	}
	return out
}

// scalingPoint measures one (app, cores) cell: Swarm, serial and (when it
// exists) the software-parallel version.
func (s *Suite) scalingPoint(b bench.Benchmark, nc int) (ScalingPoint, error) {
	serial, err := s.Serial(b, nc)
	if err != nil {
		return ScalingPoint{}, fmt.Errorf("%s serial @%dc: %w", b.Name(), nc, err)
	}
	st, err := s.defaultRun(b, nc)
	if err != nil {
		return ScalingPoint{}, fmt.Errorf("%s swarm @%dc: %w", b.Name(), nc, err)
	}
	pt := ScalingPoint{Cores: nc, SwarmCycles: st.Cycles, SerialCycles: serial, Stats: st}
	if pb, ok := b.(bench.Parallel); ok {
		par, err := pb.RunParallel(nc)
		if err != nil {
			return ScalingPoint{}, fmt.Errorf("%s parallel @%dc: %w", b.Name(), nc, err)
		}
		pt.ParallelCycles = par
	}
	return pt, nil
}

// ScalingAll runs Swarm, serial and software-parallel versions of every
// benchmark across core counts (Fig 11, Fig 12, and the underlying data
// of Fig 14), measuring the (benchmark x cores) grid concurrently, and
// returns one ScalingResult per benchmark, in suite order.
func (s *Suite) ScalingAll(coreCounts []int) ([]ScalingResult, error) {
	nb, nc := len(s.Benchmarks), len(coreCounts)
	results := make([]ScalingResult, nb)
	for i, b := range s.Benchmarks {
		results[i] = ScalingResult{App: b.Name(), Points: make([]ScalingPoint, nc)}
	}
	err := s.pool.Run(nb*nc,
		func(i int) string {
			return fmt.Sprintf("%s@%dc", s.Benchmarks[i/nc].Name(), coreCounts[i%nc])
		},
		func(i int) error {
			pt, err := s.scalingPoint(s.Benchmarks[i/nc], coreCounts[i%nc])
			results[i/nc].Points[i%nc] = pt
			return err
		})
	return results, err
}

// ----------------------------------------------------------------- Fig 13 --

// SiloWarehousePoint is one Fig 13 measurement.
type SiloWarehousePoint struct {
	Warehouses      int
	SwarmSpeedup    float64 // vs serial, at Cores
	ParallelSpeedup float64
}

// Fig13 sweeps TPC-C warehouse counts at a fixed core count, one worker
// per warehouse count. The swept app is located via its "fig13" registry
// tag; the warehouse knob is silo-specific, so a retag fails loudly here
// instead of silently sweeping the wrong app.
func (s *Suite) Fig13(warehouses []int, cores, txns int) ([]SiloWarehousePoint, error) {
	var tagged []string
	for _, meta := range bench.Apps() {
		if meta.InFigure("fig13") {
			tagged = append(tagged, meta.Name)
		}
	}
	if len(tagged) != 1 || tagged[0] != "silo" {
		return nil, fmt.Errorf("fig13: registry tags %v, but the warehouse sweep is silo-specific", tagged)
	}
	out := make([]SiloWarehousePoint, len(warehouses))
	err := s.pool.Run(len(warehouses),
		func(i int) string { return fmt.Sprintf("silo wh=%d", warehouses[i]) },
		func(i int) error {
			b := s.silo(warehouses[i], txns)
			serial, err := b.RunSerial(cores)
			if err != nil {
				return err
			}
			st, err := b.RunSwarm(s.config(cores))
			if err != nil {
				return err
			}
			par, err := b.RunParallel(cores)
			if err != nil {
				return err
			}
			out[i] = SiloWarehousePoint{
				Warehouses:      warehouses[i],
				SwarmSpeedup:    ratio(float64(serial), float64(st.Cycles)),
				ParallelSpeedup: ratio(float64(serial), float64(par)),
			}
			return nil
		})
	return out, err
}

// ----------------------------------------------------------------- Table 5 --

// Table5Row reports gmean speedups under progressive idealizations.
type Table5Row struct {
	Config       string
	OneCore      float64 // 1c vs 1c-baseline
	SixtyFour    float64 // Nc vs 1c-baseline
	SelfRelative float64 // Nc vs 1c same idealization
}

// Table5 applies the paper's idealizations: unbounded queues, then a
// zero-cycle memory system, at 1 core and at maxCores. Every
// (variant, benchmark) pair runs concurrently; the baseline variant
// shares the suite's cached default-config runs.
func (s *Suite) Table5(maxCores int) ([]Table5Row, error) {
	type variant struct {
		name  string
		tweak func(*core.Config)
	}
	variants := []variant{
		{"Swarm baseline", func(c *core.Config) {}},
		{"+ unbounded queues", func(c *core.Config) { c.UnboundedQueues = true }},
		{"+ 0-cycle mem system", func(c *core.Config) {
			c.UnboundedQueues = true
			c.Cache.ZeroLatency = true
		}},
	}
	nb := len(s.Benchmarks)
	type pairResult struct{ cycles1, cyclesN uint64 }
	cells := make([]pairResult, len(variants)*nb)
	err := s.pool.Run(len(cells),
		func(i int) string {
			return fmt.Sprintf("table5[%s] %s", variants[i/nb].name, s.Benchmarks[i%nb].Name())
		},
		func(i int) error {
			v, b := variants[i/nb], s.Benchmarks[i%nb]
			run := func(cores int) (core.Stats, error) {
				if i/nb == 0 {
					// The baseline variant's tweak is a no-op: share the
					// cached default-config runs.
					return s.defaultRun(b, cores)
				}
				cfg := s.config(cores)
				v.tweak(&cfg)
				return b.RunSwarm(cfg)
			}
			st1, err := run(1)
			if err != nil {
				return fmt.Errorf("%s %s 1c: %w", b.Name(), v.name, err)
			}
			stN, err := run(maxCores)
			if err != nil {
				return fmt.Errorf("%s %s %dc: %w", b.Name(), v.name, maxCores, err)
			}
			cells[i] = pairResult{st1.Cycles, stN.Cycles}
			return nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, 0, len(variants))
	for vi, v := range variants {
		var sp1, spN, spSelf []float64
		for bi := range s.Benchmarks {
			c := cells[vi*nb+bi]
			b1 := float64(cells[bi].cycles1) // variant 0 = baseline
			sp1 = append(sp1, ratio(b1, float64(c.cycles1)))
			spN = append(spN, ratio(b1, float64(c.cyclesN)))
			spSelf = append(spSelf, ratio(float64(c.cycles1), float64(c.cyclesN)))
		}
		rows = append(rows, Table5Row{
			Config:       v.name,
			OneCore:      gmean(sp1),
			SixtyFour:    gmean(spN),
			SelfRelative: gmean(spSelf),
		})
	}
	return rows, nil
}

// ----------------------------------------------------------- Fig 17 sweeps --

// SweepPoint is one sensitivity measurement: performance relative to the
// default configuration.
type SweepPoint struct {
	Label string
	Perf  []float64 // per app, relative to default config
}

// sweepVariant is one sensitivity-sweep configuration point.
type sweepVariant struct {
	label  string // SweepPoint label
	errTag string // config description for error messages
	tweak  func(*core.Config)
}

// sweep measures every (variant, benchmark) cell concurrently and reports
// performance relative to the (cached) default configuration.
func (s *Suite) sweep(cores int, variants []sweepVariant) ([]SweepPoint, error) {
	nb := len(s.Benchmarks)
	cycles := make([]uint64, len(variants)*nb)
	// Task layout: the first nb tasks are the shared baseline runs, the
	// rest the sweep grid; the deduplicating cache keeps baselines from
	// being simulated twice even when another sweep already ran them.
	err := s.pool.Run(nb+len(variants)*nb,
		func(i int) string {
			if i < nb {
				return fmt.Sprintf("base %s@%dc", s.Benchmarks[i].Name(), cores)
			}
			i -= nb
			return fmt.Sprintf("%s %s", variants[i/nb].errTag, s.Benchmarks[i%nb].Name())
		},
		func(i int) error {
			if i < nb {
				_, err := s.defaultRun(s.Benchmarks[i], cores)
				return err
			}
			i -= nb
			v, b := variants[i/nb], s.Benchmarks[i%nb]
			cfg := s.config(cores)
			v.tweak(&cfg)
			st, err := b.RunSwarm(cfg)
			if err != nil {
				return fmt.Errorf("%s %s: %w", b.Name(), v.errTag, err)
			}
			cycles[i] = st.Cycles
			return nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(variants))
	for vi, v := range variants {
		pt := SweepPoint{Label: v.label}
		for bi, b := range s.Benchmarks {
			base, _ := s.defaultRun(b, cores) // cached above
			pt.Perf = append(pt.Perf, ratio(float64(base.Cycles), float64(cycles[vi*nb+bi])))
		}
		out[vi] = pt
	}
	return out, nil
}

// CommitQueueSweep reproduces Fig 17(a): performance vs aggregate commit
// queue entries (0 = unbounded).
func (s *Suite) CommitQueueSweep(cores int, totals []int) ([]SweepPoint, error) {
	variants := make([]sweepVariant, len(totals))
	for i, tot := range totals {
		v := sweepVariant{
			label:  fmt.Sprintf("%d", tot),
			errTag: fmt.Sprintf("cq=%d", tot),
			tweak: func(cfg *core.Config) {
				if tot == 0 {
					// Unbounded commit queues only: emulate with a huge cap.
					cfg.CommitQPerCore = 1 << 20
				} else {
					cfg.CommitQPerCore = tot / cfg.Cores()
					if cfg.CommitQPerCore < 1 {
						cfg.CommitQPerCore = 1
					}
				}
			},
		}
		if tot == 0 {
			v.label = "INF"
		}
		variants[i] = v
	}
	return s.sweep(cores, variants)
}

// BloomSweep reproduces Fig 17(b): performance vs signature configuration.
func (s *Suite) BloomSweep(cores int, cfgs []bloom.Config) ([]SweepPoint, error) {
	variants := make([]sweepVariant, len(cfgs))
	for i, bc := range cfgs {
		variants[i] = sweepVariant{
			label:  bc.String(),
			errTag: fmt.Sprintf("bloom=%v", bc),
			tweak:  func(cfg *core.Config) { cfg.Bloom = bc },
		}
	}
	return s.sweep(cores, variants)
}

// GVTSweep reproduces the §6.4 GVT-period sensitivity study.
func (s *Suite) GVTSweep(cores int, periods []uint64) ([]SweepPoint, error) {
	variants := make([]sweepVariant, len(periods))
	for i, p := range periods {
		variants[i] = sweepVariant{
			label:  fmt.Sprintf("%d", p),
			errTag: fmt.Sprintf("gvt=%d", p),
			tweak:  func(cfg *core.Config) { cfg.GVTPeriod = p },
		}
	}
	return s.sweep(cores, variants)
}

// CanaryStudy reproduces the §6.3 canary-precision comparison: per-line vs
// per-set canary virtual times (global check reduction and speedup), one
// worker per benchmark.
func (s *Suite) CanaryStudy(cores int) (checkReduction, gmeanSpeedup float64, err error) {
	type cell struct {
		red    float64
		hasRed bool
		sp     float64
	}
	cs := make([]cell, len(s.Benchmarks))
	err = s.pool.Run(len(s.Benchmarks),
		func(i int) string { return "canary " + s.Benchmarks[i].Name() },
		func(i int) error {
			b := s.Benchmarks[i]
			st, err := s.defaultRun(b, cores)
			if err != nil {
				return err
			}
			cfgP := s.config(cores)
			cfgP.Cache.CanaryPerLine = true
			stP, err := b.RunSwarm(cfgP)
			if err != nil {
				return err
			}
			c := cell{sp: ratio(float64(st.Cycles), float64(stP.Cycles))}
			if g := float64(st.Cache.GlobalChecks); g > 0 {
				c.red = 1 - float64(stP.Cache.GlobalChecks)/g
				c.hasRed = true
			}
			cs[i] = c
			return nil
		})
	if err != nil {
		return 0, 0, err
	}
	var reds, sps []float64
	for _, c := range cs {
		if c.hasRed {
			reds = append(reds, c.red)
		}
		sps = append(sps, c.sp)
	}
	var sum float64
	for _, r := range reds {
		sum += r
	}
	return ratio(sum, float64(len(reds))), gmean(sps), nil
}

// ----------------------------------------------------------- mapper sweep --

// MapperPoint is one (mapper, app) cell of the task-mapping policy sweep:
// simulated performance plus the placement diagnostics (queue imbalance,
// NoC traffic) that explain it.
type MapperPoint struct {
	Mapper    string
	App       string
	Cycles    uint64
	Speedup   float64 // vs the random mapper on the same app (1.0 = equal)
	Aborts    uint64
	NoCBytes  uint64  // chip-wide injected bytes, all classes
	Imbalance float64 // per-tile task queue occupancy, max/mean
}

// MapperSweep measures every (mapper, app) cell at a fixed core count,
// fanning the grid over the pool. Points come back grouped by mapper in
// the order given, apps in suite order; speedups are relative to the
// "random" policy (which should be part of mappers).
func (s *Suite) MapperSweep(cores int, mappers []string) ([]MapperPoint, error) {
	nb := len(s.Benchmarks)
	pts := make([]MapperPoint, len(mappers)*nb)
	err := s.pool.Run(len(pts),
		func(i int) string {
			return fmt.Sprintf("mapper=%s %s@%dc", mappers[i/nb], s.Benchmarks[i%nb].Name(), cores)
		},
		func(i int) error {
			name, b := mappers[i/nb], s.Benchmarks[i%nb]
			cfg := core.DefaultConfig(cores)
			cfg.Mapper = name
			cfg.Backend = s.backendName
			st, err := b.RunSwarm(cfg)
			if err != nil {
				return fmt.Errorf("%s mapper=%s: %w", b.Name(), name, err)
			}
			pts[i] = MapperPoint{
				Mapper:    name,
				App:       b.Name(),
				Cycles:    st.Cycles,
				Aborts:    st.Aborts,
				NoCBytes:  st.TotalTrafficBytes(),
				Imbalance: st.TaskQOccImbalance(),
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Speedups vs the random cells (0 when random was not swept).
	randomCycles := map[string]uint64{}
	for _, p := range pts {
		if p.Mapper == "random" {
			randomCycles[p.App] = p.Cycles
		}
	}
	for i := range pts {
		pts[i].Speedup = ratio(float64(randomCycles[pts[i].App]), float64(pts[i].Cycles))
	}
	return pts, nil
}

// ------------------------------------------------------------ phased runs --

// PhasePoint is one (app, cores, phase) cell of the phased-workload sweep:
// the per-phase statistics of a session-API benchmark.
type PhasePoint struct {
	App   string
	Cores int
	Stats core.PhaseStats
}

// PhasedApps returns the suite's session-API (multi-phase) benchmarks, in
// suite order.
func (s *Suite) PhasedApps() []bench.Sessioned {
	var out []bench.Sessioned
	for _, b := range s.Benchmarks {
		if pb, ok := b.(bench.Sessioned); ok {
			out = append(out, pb)
		}
	}
	return out
}

// PhasedRuns executes every phased benchmark across the core counts,
// fanning (app, cores) sessions over the pool, and returns per-phase rows
// grouped by app in suite order, then cores, then phase. The mapper
// override applies as in every other sweep.
func (s *Suite) PhasedRuns(coreCounts []int) ([]PhasePoint, error) {
	apps := s.PhasedApps()
	nc := len(coreCounts)
	cells := make([][]core.PhaseStats, len(apps)*nc)
	err := s.pool.Run(len(cells),
		func(i int) string {
			return fmt.Sprintf("phases %s@%dc", apps[i/nc].Name(), coreCounts[i%nc])
		},
		func(i int) error {
			b, cores := apps[i/nc], coreCounts[i%nc]
			phases, err := bench.RunPhases(b, s.config(cores))
			if err != nil {
				return fmt.Errorf("%s phases @%dc: %w", b.Name(), cores, err)
			}
			cells[i] = phases
			return nil
		})
	if err != nil {
		return nil, err
	}
	var pts []PhasePoint
	for i, phases := range cells {
		for _, ph := range phases {
			pts = append(pts, PhasePoint{App: apps[i/nc].Name(), Cores: coreCounts[i%nc], Stats: ph})
		}
	}
	return pts, nil
}

// Fig18 runs the Fig 18 case study (the app tagged "fig18" in the
// registry — astar) with a per-tile tracer on a 16-core, 4-tile machine
// (500-cycle samples).
func (s *Suite) Fig18() (core.Stats, error) {
	var tagged []bench.Benchmark
	for _, b := range s.Benchmarks {
		if meta, ok := bench.Lookup(b.Name()); ok && meta.InFigure("fig18") {
			tagged = append(tagged, b)
		}
	}
	if len(tagged) != 1 {
		return core.Stats{}, fmt.Errorf("fig18: want exactly one app tagged \"fig18\", have %d", len(tagged))
	}
	cfg := s.config(16)
	cfg.TraceInterval = 500
	return tagged[0].RunSwarm(cfg)
}
