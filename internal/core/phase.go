package core

// Phased execution support: a session runs a machine to quiescence several
// times (RunPhase), mutating guest memory and injecting new root tasks in
// between. PhaseStats reports what one phase did — deltas of the
// monotonically-growing counters between the phase's two quiescent points —
// next to the cumulative Stats at the phase's end, so occupancy-over-time
// and per-batch cost are measurable without resetting the machine.

// phaseSnap is the cumulative-counter snapshot taken at a phase boundary.
// Every field is monotone over a run, so a phase's contribution is the
// difference between its end and start snapshots.
type phaseSnap struct {
	cycle  uint64
	events uint64

	commits, aborts     uint64
	enqueues, dequeues  uint64
	nacks, policyAborts uint64
	spilledTasks        uint64
	gvtUpdates          uint64
	tqOccSum, cqOccSum  uint64
	occSamples          uint64
	committedCyc        uint64
	abortedCyc          uint64
	spillCyc            uint64
	trafficBytes        uint64
	bloomChecks, vtCmps uint64
}

func (m *Machine) takeSnap() phaseSnap {
	s := phaseSnap{
		cycle:        m.eng.Now(),
		events:       m.eng.Fired(),
		commits:      m.st.commits,
		aborts:       m.st.aborts,
		enqueues:     m.st.enqueues,
		dequeues:     m.st.dequeues,
		nacks:        m.st.nacks,
		policyAborts: m.st.policyAborts,
		spilledTasks: m.st.spilledTasks,
		gvtUpdates:   m.st.gvtUpdates,
		tqOccSum:     m.st.tqOccSum,
		cqOccSum:     m.st.cqOccSum,
		occSamples:   m.st.occSamples,
		bloomChecks:  m.st.bloomChecks,
		vtCmps:       m.st.vtCompares,
	}
	for _, c := range m.cores {
		s.committedCyc += c.committedCyc
		s.abortedCyc += c.abortedCyc
		s.spillCyc += c.wallSpill
	}
	for _, b := range m.mesh.TotalBytes() {
		s.trafficBytes += b
	}
	return s
}

// PhaseStats reports one quiescence-to-quiescence phase of a session. The
// counter fields are phase deltas; Cumulative is the full machine Stats at
// the phase's end (the same structure a one-shot run returns).
type PhaseStats struct {
	// Phase is the 1-based phase index.
	Phase int
	// StartCycle and EndCycle bound the phase on the machine clock
	// (Cycles = EndCycle - StartCycle).
	StartCycle, EndCycle uint64
	Cycles               uint64
	// Events is the number of discrete engine events the phase fired.
	Events uint64

	// WallNS is host wall-clock nanoseconds the phase took under the
	// native backends (zero under the simulator, as in Stats.WallNS).
	WallNS uint64

	// Task events within the phase.
	Commits      uint64
	Aborts       uint64
	Enqueues     uint64
	Dequeues     uint64
	NACKs        uint64
	PolicyAborts uint64
	SpilledTasks uint64
	GVTUpdates   uint64

	// Core-cycle breakdown within the phase (Fig 14, per phase).
	CommittedCycles uint64
	AbortedCycles   uint64
	SpillCycles     uint64
	StallCycles     uint64

	// Conflict-detection activity within the phase.
	BloomChecks uint64
	VTCompares  uint64

	// Average queue occupancies over the phase's GVT samples.
	AvgTaskQueueOcc   float64
	AvgCommitQueueOcc float64

	// TrafficBytes is NoC bytes injected during the phase, all classes.
	TrafficBytes uint64

	// Cumulative is the whole-run Stats at the phase's end quiescent point.
	Cumulative Stats
}

// phaseStats diffs the current machine state against the snapshot taken at
// the running phase's start.
func (m *Machine) phaseStats() PhaseStats {
	end := m.takeSnap()
	p := PhaseStats{
		Phase:           m.phase,
		StartCycle:      m.snap.cycle,
		EndCycle:        end.cycle,
		Cycles:          end.cycle - m.snap.cycle,
		Events:          end.events - m.snap.events,
		Commits:         end.commits - m.snap.commits,
		Aborts:          end.aborts - m.snap.aborts,
		Enqueues:        end.enqueues - m.snap.enqueues,
		Dequeues:        end.dequeues - m.snap.dequeues,
		NACKs:           end.nacks - m.snap.nacks,
		PolicyAborts:    end.policyAborts - m.snap.policyAborts,
		SpilledTasks:    end.spilledTasks - m.snap.spilledTasks,
		GVTUpdates:      end.gvtUpdates - m.snap.gvtUpdates,
		CommittedCycles: end.committedCyc - m.snap.committedCyc,
		AbortedCycles:   end.abortedCyc - m.snap.abortedCyc,
		SpillCycles:     end.spillCyc - m.snap.spillCyc,
		BloomChecks:     end.bloomChecks - m.snap.bloomChecks,
		VTCompares:      end.vtCmps - m.snap.vtCmps,
		TrafficBytes:    end.trafficBytes - m.snap.trafficBytes,
		Cumulative:      m.collectStats(),
	}
	if samples := end.occSamples - m.snap.occSamples; samples > 0 {
		p.AvgTaskQueueOcc = float64(end.tqOccSum-m.snap.tqOccSum) / float64(samples)
		p.AvgCommitQueueOcc = float64(end.cqOccSum-m.snap.cqOccSum) / float64(samples)
	}
	busy := p.CommittedCycles + p.AbortedCycles + p.SpillCycles
	if wall := p.Cycles * uint64(m.cfg.Cores()); wall > busy {
		p.StallCycles = wall - busy
	}
	return p
}
