package bench

import (
	"reflect"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// The cross-backend differential matrix: every registered benchmark,
// across machine sizes, must produce the same committed guest memory on
// the native runtimes (rt, rt-conservative) as on the cycle-level
// simulator — word for word — and both must satisfy the app's host-side
// serial reference (Verify). The simulator executes tasks one event at a
// time with hardware-model conflict detection; the runtimes execute them
// speculatively on host goroutines with per-word versioning and strict
// timestamp-order commits. Equal final memory across all three (the two
// engines plus the serial oracle) is the strongest end-to-end statement
// that the guest programs really are order-independent decompositions
// and that the runtime's speculation is sound. Under -race the matrix
// doubles as the data-race proof for the rt scheduler and versioned
// store on every app in the suite.
//
// The ordering contract specifies commit order between distinct
// timestamps only; tasks sharing a timestamp may commit in any relative
// order. Three apps are sensitive to that tie order in benign ways —
// msf (union-find path compression), kcore (peeling bookkeeping) and
// des (event coalescing skips enqueues based on current state) — and
// the simulator itself does not produce identical final memory (or, for
// des, commit counts) across its own machine sizes for them. For those
// apps the matrix instead asserts the serial reference plus the
// runtimes' stronger determinism guarantee: identical final memory for
// every worker count, which the simulator does not offer. dsssp sits in
// between — its committed memory is tie-independent (and is held to the
// full cross-backend comparison) but its committed-task count is not.
//
// Full mode runs every app x cores {1,4,16,64} x both runtimes, each at
// the default commit queue and at one entry per core; -short trims to
// corner cells. Small machines additionally run with DebugChecks, turning
// on the runtimes' commit-time re-execution (divergence) checks.

var rtBackends = []string{"rt", "rt-conservative"}

// commitQSizes are the runtimes' commit-queue sizes per core in the
// matrix: the default, and 1, the smallest, at which workers stall on a
// full queue most often, so progress rests on the bound admitting the
// earliest uncommitted task.
var commitQSizes = []int{core.DefaultConfig(1).CommitQPerCore, 1}

// diffCores is the matrix's machine-size axis: every size in full mode,
// the 1- and 16-core corners under -short.
func diffCores(short bool) []int {
	if short {
		return []int{1, 16}
	}
	return []int{1, 4, 16, 64}
}

// tieSensitive marks apps whose committed memory legitimately depends
// on the unspecified equal-timestamp commit order.
var tieSensitive = map[string]bool{"msf": true, "kcore": true, "des": true}

// tieCountSensitive marks apps whose committed memory is deterministic
// but whose committed-task count varies benignly with the tie order:
// delta-stepping coalesces a whole distance bucket onto one timestamp,
// and whether an improvement's re-push is pruned depends on whether a
// same-bucket handler for that vertex has already committed. Either way
// some handler observes the improvement, so the final memory agrees —
// only the number of handler entries differs.
var tieCountSensitive = map[string]bool{"dsssp": true}

// backendRun builds, runs and verifies app on the backend cfg selects,
// returning the committed guest memory and cumulative stats.
func backendRun(t *testing.T, app SwarmApp, cfg core.Config) (map[uint64]uint64, core.Stats) {
	t.Helper()
	bk, err := app.Backend(cfg)
	if err != nil {
		t.Fatalf("backend %q: %v", cfg.Backend, err)
	}
	ph, err := bk.RunPhase()
	if err != nil {
		t.Fatalf("backend %q: run: %v", cfg.Backend, err)
	}
	if app.Verify != nil {
		if err := app.Verify(bk.Mem().Load); err != nil {
			t.Fatalf("backend %q: result fails the serial reference: %v", cfg.Backend, err)
		}
	}
	return bk.Mem().Snapshot(), ph.Cumulative
}

func TestBackendDifferentialApps(t *testing.T) {
	for _, meta := range Apps() {
		meta := meta
		t.Run(meta.Name, func(t *testing.T) {
			t.Parallel()
			b, err := New(meta.Name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			app := b.SwarmApp()
			// For tie-sensitive apps the runtimes are held to their own
			// determinism promise: every cell must equal the backend's
			// 1-worker run word for word.
			rtBase := map[string]map[uint64]uint64{}
			for _, cores := range diffCores(testing.Short()) {
				simMem, simStats := backendRun(t, app, core.DefaultConfig(cores))
				for _, commitQ := range commitQSizes {
					for _, name := range rtBackends {
						cfg := core.DefaultConfig(cores)
						cfg.Backend = name
						cfg.CommitQPerCore = commitQ
						// Re-execution checks on the small machines, where
						// re-running every committed body stays cheap.
						cfg.DebugChecks = cores <= 4
						gotMem, gotStats := backendRun(t, app, cfg)
						if tieSensitive[meta.Name] {
							if base, ok := rtBase[name]; !ok {
								rtBase[name] = gotMem
							} else if !reflect.DeepEqual(gotMem, base) {
								t.Fatalf("cores=%d commitq=%d %s: committed memory diverges from the backend's own first run — the runtime's determinism guarantee is broken", cores, commitQ, name)
							}
						} else {
							if !reflect.DeepEqual(gotMem, simMem) {
								t.Fatalf("cores=%d commitq=%d %s: committed memory diverges from the simulator (%d vs %d nonzero words)",
									cores, commitQ, name, len(gotMem), len(simMem))
							}
							if !tieCountSensitive[meta.Name] && gotStats.Commits != simStats.Commits {
								t.Fatalf("cores=%d commitq=%d %s: %d commits, simulator committed %d",
									cores, commitQ, name, gotStats.Commits, simStats.Commits)
							}
						}
						if gotStats.Backend != name {
							t.Fatalf("cores=%d: stats report backend %q, want %q", cores, gotStats.Backend, name)
						}
					}
				}
			}
		})
	}
}

// TestBackendDifferentialPhases runs every phased (session) benchmark on
// the native runtimes phase by phase: each phase re-verifies against the
// per-phase host reference inside RunPhases, and the per-phase
// committed-task counts must match the simulator's — work may not shift
// between phases depending on the engine.
func TestBackendDifferentialPhases(t *testing.T) {
	cores := []int{4, 16}
	if testing.Short() {
		cores = cores[:1]
	}
	ran := false
	for _, meta := range Apps() {
		b, err := New(meta.Name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		ph, ok := b.(Sessioned)
		if !ok {
			continue
		}
		ran = true
		t.Run(meta.Name, func(t *testing.T) {
			for _, nc := range cores {
				sim, err := RunPhases(ph, core.DefaultConfig(nc))
				if err != nil {
					t.Fatalf("cores=%d sim: %v", nc, err)
				}
				for _, name := range rtBackends {
					cfg := core.DefaultConfig(nc)
					cfg.Backend = name
					cfg.DebugChecks = true
					got, err := RunPhases(ph, cfg)
					if err != nil {
						t.Fatalf("cores=%d %s: %v", nc, name, err)
					}
					if len(got) != len(sim) {
						t.Fatalf("cores=%d %s: %d phases, simulator ran %d", nc, name, len(got), len(sim))
					}
					for i := range got {
						if got[i].Commits != sim[i].Commits {
							t.Fatalf("cores=%d %s phase %d: %d commits, simulator committed %d",
								nc, name, i+1, got[i].Commits, sim[i].Commits)
						}
					}
				}
			}
		})
	}
	if !ran {
		t.Fatal("no phased benchmark registered — the multi-phase backend differential never ran")
	}
}
