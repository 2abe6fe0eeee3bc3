package core

import (
	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/noc"
)

type internalStats struct {
	commits, aborts    uint64
	dequeues           uint64
	enqueues, nacks    uint64
	overflowed         uint64
	policyAborts       uint64
	spilledTasks       uint64
	bloomChecks        uint64
	vtCompares         uint64
	gvtUpdates         uint64
	tqOccSum, cqOccSum uint64
	occSamples         uint64

	// Per-tile occupancy sums (same sampling points as the aggregates):
	// the mapper diagnostics behind Stats.TileTaskQOcc/TileCommitQOcc.
	tileTqOccSum, tileCqOccSum []uint64
}

// Stats is the result of one Swarm run.
type Stats struct {
	// Backend names the execution engine that produced the run: "sim"
	// for the cycle-level simulator, "rt"/"rt-conservative" for the
	// native host runtime (see BackendNames).
	Backend string

	// Cycles is the end-to-end run time in cycles. Zero under the native
	// backends: they execute on host cores, so there is no simulated
	// clock — WallNS is their time metric.
	Cycles uint64
	Cores  int
	Tiles  int

	// WallNS is host wall-clock nanoseconds of measured execution. Zero
	// under the simulator, whose results must be bit-identical across
	// hosts and host-parallelism levels; the native backends report it
	// in place of Cycles.
	WallNS uint64

	// Events is the number of discrete events the simulation engine fired:
	// the host-side work metric (events/sec is the simulator's throughput).
	Events uint64

	// Task events.
	Commits      uint64
	Aborts       uint64
	Enqueues     uint64
	Dequeues     uint64
	NACKs        uint64 // enqueue rejections (full speculative queues)
	PolicyAborts uint64 // aborts from the §4.7 full-queue policies
	SpilledTasks uint64 // descriptors moved to memory by coalescers

	// Aggregate core-cycle breakdown (Fig 14).
	CommittedCycles uint64 // executing tasks that ultimately commit
	AbortedCycles   uint64 // executing tasks that later abort
	SpillCycles     uint64 // coalescer + splitter work
	StallCycles     uint64 // cores idle or blocked

	// Conflict-detection activity (§6.3).
	BloomChecks uint64
	VTCompares  uint64

	GVTUpdates uint64

	// Average queue occupancies, whole machine (Fig 15).
	AvgTaskQueueOcc   float64
	AvgCommitQueueOcc float64

	// Mapper is the task-mapping policy the machine ran with.
	Mapper string
	// TileTaskQOcc and TileCommitQOcc are per-tile average queue
	// occupancies (same sampling as the Avg* aggregates): the placement-
	// skew view a mapper change moves even when the averages stand still.
	TileTaskQOcc   []float64
	TileCommitQOcc []float64
	// TileTrafficBytes is total NoC bytes injected per tile, all classes:
	// the per-tile traffic delta between mappers.
	TileTrafficBytes []uint64

	// NoC injected bytes by class (Fig 16).
	TrafficBytes [noc.NumClasses]uint64

	Cache cache.Stats

	// Trace holds Fig 18-style samples when TraceInterval was set.
	Trace []TraceSample
}

// TotalCoreCycles returns Cycles x Cores: the denominator of Fig 14.
func (s Stats) TotalCoreCycles() uint64 { return s.Cycles * uint64(s.Cores) }

// TrafficGBps returns per-tile average injection in GB/s assuming the 2GHz
// clock of Table 3 (Fig 16's y-axis).
func (s Stats) TrafficGBps(class noc.Class) float64 {
	if s.Cycles == 0 || s.Tiles == 0 {
		return 0
	}
	bytesPerCycle := float64(s.TrafficBytes[class]) / float64(s.Cycles) / float64(s.Tiles)
	return bytesPerCycle * 2 // 2 GHz: cycles/s * 1e9 -> bytes/ns = GB/s
}

// TotalTrafficBytes returns chip-wide injected NoC bytes across all
// message classes.
func (s Stats) TotalTrafficBytes() uint64 {
	var tot uint64
	for _, b := range s.TrafficBytes {
		tot += b
	}
	return tot
}

// TaskQOccImbalance returns the max-over-mean ratio of per-tile task queue
// occupancy: 1.0 is perfectly even placement; large values mean the mapper
// piled queued work onto few tiles. Returns 0 when nothing was sampled.
func (s Stats) TaskQOccImbalance() float64 {
	var sum, max float64
	for _, o := range s.TileTaskQOcc {
		sum += o
		if o > max {
			max = o
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(s.TileTaskQOcc)))
}

func (m *Machine) collectStats() Stats {
	s := Stats{
		Backend:      "sim",
		Cycles:       m.eng.Now(),
		Events:       m.eng.Fired(),
		Cores:        m.cfg.Cores(),
		Tiles:        m.cfg.Tiles,
		Commits:      m.st.commits,
		Aborts:       m.st.aborts,
		Enqueues:     m.st.enqueues,
		Dequeues:     m.st.dequeues,
		NACKs:        m.st.nacks,
		PolicyAborts: m.st.policyAborts,
		SpilledTasks: m.st.spilledTasks,
		BloomChecks:  m.st.bloomChecks,
		VTCompares:   m.st.vtCompares,
		GVTUpdates:   m.st.gvtUpdates,
		Mapper:       m.mapper.name(),
		Cache:        m.hier.Stats(),
		TrafficBytes: m.mesh.TotalBytes(),
	}
	s.TileTaskQOcc = make([]float64, m.cfg.Tiles)
	s.TileCommitQOcc = make([]float64, m.cfg.Tiles)
	s.TileTrafficBytes = make([]uint64, m.cfg.Tiles)
	for i := range m.tiles {
		if m.st.occSamples > 0 {
			s.TileTaskQOcc[i] = float64(m.st.tileTqOccSum[i]) / float64(m.st.occSamples)
			s.TileCommitQOcc[i] = float64(m.st.tileCqOccSum[i]) / float64(m.st.occSamples)
		}
		for _, b := range m.mesh.InjectedBytes(i) {
			s.TileTrafficBytes[i] += b
		}
	}
	for _, c := range m.cores {
		s.CommittedCycles += c.committedCyc
		s.AbortedCycles += c.abortedCyc
		s.SpillCycles += c.wallSpill
	}
	busy := s.CommittedCycles + s.AbortedCycles + s.SpillCycles
	if tot := s.TotalCoreCycles(); tot > busy {
		s.StallCycles = tot - busy
	}
	if m.st.occSamples > 0 {
		s.AvgTaskQueueOcc = float64(m.st.tqOccSum) / float64(m.st.occSamples)
		s.AvgCommitQueueOcc = float64(m.st.cqOccSum) / float64(m.st.occSamples)
	}
	if m.tracer != nil {
		s.Trace = m.tracer.samples
	}
	return s
}

// TraceSample is one Fig 18 sampling interval.
type TraceSample struct {
	Cycle uint64
	Tiles []TileSample
}

// TileSample is the per-tile state over one sampling interval.
type TileSample struct {
	Worker  uint64 // core cycles spent on worker tasks
	Spill   uint64 // core cycles spent on coalescers/splitters
	Stall   uint64 // core cycles idle
	TaskQ   int    // task queue length at sample time
	CommitQ int    // commit queue length at sample time
	Commits uint64
	Aborts  uint64
}

type tracer struct {
	m           *Machine
	samples     []TraceSample
	prevWorker  []uint64
	prevSpill   []uint64
	prevCommits []uint64
	prevAborts  []uint64
	prevCycle   uint64
}

func newTracer(m *Machine) *tracer {
	n := m.cfg.Tiles
	return &tracer{
		m:           m,
		prevWorker:  make([]uint64, n),
		prevSpill:   make([]uint64, n),
		prevCommits: make([]uint64, n),
		prevAborts:  make([]uint64, n),
	}
}

func (tr *tracer) sample() {
	m := tr.m
	now := m.eng.Now()
	interval := now - tr.prevCycle
	ts := TraceSample{Cycle: now, Tiles: make([]TileSample, m.cfg.Tiles)}
	for i, tt := range m.tiles {
		var worker, spill uint64
		base := i * m.cfg.CoresPerTile
		for j := 0; j < m.cfg.CoresPerTile; j++ {
			worker += m.cores[base+j].wallWorker
			spill += m.cores[base+j].wallSpill
		}
		dw := worker - tr.prevWorker[i]
		dsp := spill - tr.prevSpill[i]
		tr.prevWorker[i], tr.prevSpill[i] = worker, spill
		wall := interval * uint64(m.cfg.CoresPerTile)
		var stall uint64
		if wall > dw+dsp {
			stall = wall - dw - dsp
		}
		ts.Tiles[i] = TileSample{
			Worker:  dw,
			Spill:   dsp,
			Stall:   stall,
			TaskQ:   tt.nTasks,
			CommitQ: tt.commitQ.Len(),
			Commits: tt.commitsCount - tr.prevCommits[i],
			Aborts:  tt.abortsCount - tr.prevAborts[i],
		}
		tr.prevCommits[i] = tt.commitsCount
		tr.prevAborts[i] = tt.abortsCount
	}
	tr.prevCycle = now
	tr.samples = append(tr.samples, ts)
	if !m.done {
		m.eng.After(m.cfg.TraceInterval, tr.sample)
	}
}
