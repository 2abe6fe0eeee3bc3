package core

// Phased execution support: a session runs a machine to quiescence several
// times (RunPhase), mutating guest memory and injecting new root tasks in
// between. PhaseStats reports what one phase did next to the cumulative
// Stats at the phase's end, so occupancy-over-time and per-batch cost are
// measurable without resetting the machine. Both engines build it the same
// way: PhaseOf, from their cumulative Stats at the phase's two quiescent
// points.

// PhaseStats reports one quiescence-to-quiescence phase of a session.
type PhaseStats struct {
	// Phase is the 1-based phase index.
	Phase int
	// StartCycle and EndCycle bound the phase on the machine clock
	// (Cycles = EndCycle - StartCycle).
	StartCycle, EndCycle uint64

	// Stats is what the phase itself did: every counter is the phase's
	// share, StallCycles and the average occupancies cover the phase's
	// own GVT rounds, and Trace holds the samples taken during the phase.
	// The per-tile vectors (TileTaskQOcc, TileCommitQOcc,
	// TileTrafficBytes) are whole-run only and stay nil here.
	Stats

	// Cumulative is the whole-run Stats at the phase's end quiescent point.
	Cumulative Stats
}

// PhaseOf reports phase n from an engine's cumulative Stats at the
// phase's start and end quiescent points.
func PhaseOf(n int, start, end Stats) PhaseStats {
	p := end
	p.Cycles -= start.Cycles
	p.WallNS -= start.WallNS
	p.Events -= start.Events
	p.Commits -= start.Commits
	p.Aborts -= start.Aborts
	p.Enqueues -= start.Enqueues
	p.Dequeues -= start.Dequeues
	p.NACKs -= start.NACKs
	p.PolicyAborts -= start.PolicyAborts
	p.SpilledTasks -= start.SpilledTasks
	p.CommittedCycles -= start.CommittedCycles
	p.AbortedCycles -= start.AbortedCycles
	p.SpillCycles -= start.SpillCycles
	p.BloomChecks -= start.BloomChecks
	p.VTCompares -= start.VTCompares
	p.GVTUpdates -= start.GVTUpdates
	p.tqOccSum -= start.tqOccSum
	p.cqOccSum -= start.cqOccSum
	for c := range p.TrafficBytes {
		p.TrafficBytes[c] -= start.TrafficBytes[c]
	}
	p.Cache = end.Cache.Sub(start.Cache)
	p.derive()
	p.TileTaskQOcc, p.TileCommitQOcc, p.TileTrafficBytes = nil, nil, nil
	p.Trace = end.Trace[len(start.Trace):]
	return PhaseStats{Phase: n, StartCycle: start.Cycles, EndCycle: end.Cycles, Stats: p, Cumulative: end}
}
