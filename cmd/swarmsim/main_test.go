package main

import (
	"bytes"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestPrintPhases: the per-phase table shows model cycles, spills and
// occupancies for simulator sessions and host wall time for native ones.
func TestPrintPhases(t *testing.T) {
	cases := []struct {
		name string
		phs  []core.PhaseStats
		want string
	}{
		{
			name: "sim",
			phs: []core.PhaseStats{
				{Phase: 1, Stats: core.Stats{Backend: "sim", Cycles: 13000, Commits: 499, Aborts: 35,
					SpilledTasks: 7, AvgTaskQueueOcc: 44.31, AvgCommitQueueOcc: 18.24}},
				{Phase: 2, Stats: core.Stats{Backend: "sim", Cycles: 4600, Commits: 316, Aborts: 24}},
			},
			want: "incsssp session: 2 phases\n" +
				"  phase       cycles    commits   aborts  spilled   tq_occ   cq_occ\n" +
				"      1        13000        499       35        7     44.3     18.2\n" +
				"      2         4600        316       24        0      0.0      0.0\n",
		},
		{
			name: "rt",
			phs: []core.PhaseStats{
				{Phase: 1, Stats: core.Stats{Backend: "rt", WallNS: 596_125, Commits: 499, Aborts: 15}},
				{Phase: 2, Stats: core.Stats{Backend: "rt", WallNS: 191_000, Commits: 316}},
			},
			want: "incsssp session: 2 phases\n" +
				"  phase      wall_ms    commits   aborts\n" +
				"      1        0.596        499       15\n" +
				"      2        0.191        316        0\n",
		},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		printPhases(&buf, "incsssp", tc.phs)
		if got := buf.String(); got != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
