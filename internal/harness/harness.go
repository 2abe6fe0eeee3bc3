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
	"slices"

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
// backend.Names). Note that cycle-based metrics are all zero under
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
		par, err := bench.RunParallel(pb, nc)
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
			par, err := bench.RunParallel(b, cores)
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

// ----------------------------------------------------- sensitivity studies --

// variant is one configuration of a sensitivity study: a name for
// progress and error messages, and a tweak of the suite's configuration.
// A nil tweak is the default configuration, whose runs the cached
// defaultRun shares with the scaling series and every other study.
type variant struct {
	name  string
	tweak func(*core.Config)
}

// runs measures every (variant, benchmark) cell at one core count,
// fanning the grid over the pool, and returns the runs indexed by
// variant, then benchmark in suite order. Every sensitivity study below
// is computed from it.
func (s *Suite) runs(cores int, variants []variant) ([][]core.Stats, error) {
	nb := len(s.Benchmarks)
	out := make([][]core.Stats, len(variants))
	for i := range out {
		out[i] = make([]core.Stats, nb)
	}
	err := s.pool.Run(len(variants)*nb,
		func(i int) string {
			return fmt.Sprintf("%s %s@%dc", variants[i/nb].name, s.Benchmarks[i%nb].Name(), cores)
		},
		func(i int) (err error) {
			v, b, st := variants[i/nb], s.Benchmarks[i%nb], &out[i/nb][i%nb]
			if v.tweak == nil {
				*st, err = s.defaultRun(b, cores)
			} else {
				cfg := s.config(cores)
				v.tweak(&cfg)
				*st, err = b.RunSwarm(cfg)
			}
			if err != nil {
				err = fmt.Errorf("%s %s@%dc: %w", b.Name(), v.name, cores, err)
			}
			return err
		})
	return out, err
}

// Table5Row reports gmean speedups under progressive idealizations.
type Table5Row struct {
	Config       string
	OneCore      float64 // 1c vs 1c-baseline
	SixtyFour    float64 // Nc vs 1c-baseline
	SelfRelative float64 // Nc vs 1c same idealization
}

// Table5 applies the paper's idealizations: unbounded queues, then a
// zero-cycle memory system, at 1 core and at maxCores.
func (s *Suite) Table5(maxCores int) ([]Table5Row, error) {
	variants := []variant{
		{"Swarm baseline", nil},
		{"+ unbounded queues", func(c *core.Config) { c.UnboundedQueues = true }},
		{"+ 0-cycle mem system", func(c *core.Config) {
			c.UnboundedQueues = true
			c.Cache.ZeroLatency = true
		}},
	}
	one, err := s.runs(1, variants)
	if err != nil {
		return nil, err
	}
	many, err := s.runs(maxCores, variants)
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, len(variants))
	for vi, v := range variants {
		var sp1, spN, spSelf []float64
		for bi, base := range one[0] {
			b1, c1, cN := float64(base.Cycles), float64(one[vi][bi].Cycles), float64(many[vi][bi].Cycles)
			sp1 = append(sp1, ratio(b1, c1))
			spN = append(spN, ratio(b1, cN))
			spSelf = append(spSelf, ratio(c1, cN))
		}
		rows[vi] = Table5Row{Config: v.name, OneCore: gmean(sp1), SixtyFour: gmean(spN), SelfRelative: gmean(spSelf)}
	}
	return rows, nil
}

// SweepPoint is one sensitivity measurement: performance relative to the
// default configuration.
type SweepPoint struct {
	Label string
	Perf  []float64 // per app, relative to default config
}

// sweep reports each point's performance relative to the default
// configuration. A point's name is its label; progress and errors name
// it param=label.
func (s *Suite) sweep(cores int, param string, points []variant) ([]SweepPoint, error) {
	variants := []variant{{"base", nil}}
	for _, p := range points {
		variants = append(variants, variant{param + "=" + p.name, p.tweak})
	}
	runs, err := s.runs(cores, variants)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(points))
	for i, p := range points {
		out[i].Label = p.name
		for bi, base := range runs[0] {
			out[i].Perf = append(out[i].Perf, ratio(float64(base.Cycles), float64(runs[i+1][bi].Cycles)))
		}
	}
	return out, nil
}

// CommitQueueSweep reproduces Fig 17(a): performance vs aggregate commit
// queue entries (0 = unbounded).
func (s *Suite) CommitQueueSweep(cores int, totals []int) ([]SweepPoint, error) {
	points := make([]variant, len(totals))
	for i, tot := range totals {
		points[i] = variant{fmt.Sprint(tot), func(cfg *core.Config) {
			cfg.CommitQPerCore = max(tot/cfg.Cores(), 1)
		}}
		if tot == 0 {
			// Unbounded commit queues only: emulate with a huge cap.
			points[i] = variant{"INF", func(cfg *core.Config) { cfg.CommitQPerCore = 1 << 20 }}
		}
	}
	return s.sweep(cores, "cq", points)
}

// BloomSweep reproduces Fig 17(b): performance vs signature configuration.
func (s *Suite) BloomSweep(cores int, cfgs []bloom.Config) ([]SweepPoint, error) {
	points := make([]variant, len(cfgs))
	for i, bc := range cfgs {
		points[i] = variant{bc.String(), func(cfg *core.Config) { cfg.Bloom = bc }}
	}
	return s.sweep(cores, "bloom", points)
}

// GVTSweep reproduces the §6.4 GVT-period sensitivity study.
func (s *Suite) GVTSweep(cores int, periods []uint64) ([]SweepPoint, error) {
	points := make([]variant, len(periods))
	for i, p := range periods {
		points[i] = variant{fmt.Sprint(p), func(cfg *core.Config) { cfg.GVTPeriod = p }}
	}
	return s.sweep(cores, "gvt", points)
}

// CanaryStudy reproduces the §6.3 canary-precision comparison: per-line vs
// per-set canary virtual times (global check reduction and speedup).
func (s *Suite) CanaryStudy(cores int) (checkReduction, gmeanSpeedup float64, err error) {
	runs, err := s.runs(cores, []variant{
		{"base", nil},
		{"canary=line", func(cfg *core.Config) { cfg.Cache.CanaryPerLine = true }},
	})
	if err != nil {
		return 0, 0, err
	}
	var sum, n float64
	var sps []float64
	for bi, st := range runs[0] {
		stP := runs[1][bi]
		if g := float64(st.Cache.GlobalChecks); g > 0 {
			sum += 1 - float64(stP.Cache.GlobalChecks)/g
			n++
		}
		sps = append(sps, ratio(float64(st.Cycles), float64(stP.Cycles)))
	}
	return ratio(sum, n), gmean(sps), nil
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

// MapperSweep measures every (mapper, app) cell at a fixed core count.
// Points come back grouped by mapper in the order given, apps in suite
// order; speedups are relative to the "random" policy, and 0 when
// mappers does not include it.
func (s *Suite) MapperSweep(cores int, mappers []string) ([]MapperPoint, error) {
	variants := make([]variant, len(mappers))
	for i, name := range mappers {
		variants[i] = variant{"mapper=" + name, func(cfg *core.Config) { cfg.Mapper = name }}
	}
	runs, err := s.runs(cores, variants)
	if err != nil {
		return nil, err
	}
	random := slices.Index(mappers, "random")
	var pts []MapperPoint
	for mi, name := range mappers {
		for bi, st := range runs[mi] {
			pt := MapperPoint{Mapper: name, App: s.Benchmarks[bi].Name(), Cycles: st.Cycles, Aborts: st.Aborts,
				NoCBytes: st.TotalTrafficBytes(), Imbalance: st.TaskQOccImbalance()}
			if random >= 0 {
				pt.Speedup = ratio(float64(runs[random][bi].Cycles), float64(st.Cycles))
			}
			pts = append(pts, pt)
		}
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
