package rt

import (
	"math/rand"
	"testing"
	"time"

	"github.com/swarm-sim/swarm/internal/tsdom"
	"github.com/swarm-sim/swarm/internal/vt"
)

// TestReadyQueueOrder drives readyQueue with random traffic of every kind
// the scheduler sends it: fresh flat tasks, mostly at or after the last
// pop and some before it, requeued aborts, pathed fork tasks, and a
// drain-and-refill phase boundary whose timestamps precede the previous
// phase's last. After every operation min must be the minimum by before
// of a reference set, and every pop must return it. The refill must land
// in the buckets, not the side heap: the radix base resets once the
// buckets are empty.
func TestReadyQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q readyQueue
		var ref, popped []*task
		var seq uint64
		push := func(ts uint64, path tsdom.Path) {
			seq++
			tk := &task{vt: vt.Time{TS: ts, Path: path, Cycle: seq}}
			q.push(tk)
			ref = append(ref, tk)
		}
		check := func(op string) {
			t.Helper()
			var want *task
			for _, r := range ref {
				if want == nil || before(r, want) {
					want = r
				}
			}
			if got := q.min(); got != want {
				t.Fatalf("seed %d, after %s: min is %v, want %v", seed, op, vtOf(got), vtOf(want))
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d, after %s: len %d, want %d", seed, op, q.len(), len(ref))
			}
		}
		pop := func() *task {
			want := q.min()
			got := q.pop()
			if got != want {
				t.Fatalf("seed %d: pop returned %v, min was %v", seed, vtOf(got), vtOf(want))
			}
			for i, r := range ref {
				if r == got {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
			check("pop")
			return got
		}

		lo := uint64(1 << 40) // the phase's first root timestamp
		for phase := range 4 {
			for i := range 50 {
				push(lo+uint64(i/3), "")
				check("root")
			}
			if len(q.side) != 0 {
				t.Fatalf("seed %d, phase %d: %d roots went to the side heap, want 0", seed, phase, len(q.side))
			}
			cur := lo // timestamp of the last pop
			for range 2000 {
				switch r := rng.Intn(100); {
				case r < 30: // a child at the popped task's timestamp or just after
					push(cur+uint64(rng.Intn(3)), "")
				case r < 40: // a child further ahead, up to far in the future
					push(cur+1+uint64(rng.Int63n(1<<uint(1+rng.Intn(40)))), "")
				case r < 45: // a child of a task that ran behind the last pop
					push(cur-1-uint64(rng.Intn(20)), "")
				case r < 53: // a fork child, ordered by path within its slot
					push(cur+uint64(rng.Intn(3)), tsdom.FromLevels(uint64(rng.Intn(4)), uint64(rng.Intn(4))))
				case r < 63: // an aborted attempt, requeued with its old sequence number
					if len(popped) > 0 {
						i := rng.Intn(len(popped))
						tk := popped[i]
						popped = append(popped[:i], popped[i+1:]...)
						q.side.push(tk)
						ref = append(ref, tk)
					}
				default:
					if len(ref) > 0 {
						tk := pop()
						cur = tk.vt.TS
						popped = append(popped, tk)
					}
				}
				check("push")
			}
			for len(ref) > 0 {
				pop()
			}
			popped = popped[:0]
			if q.last <= 1<<20 {
				t.Fatalf("seed %d: last %d leaves no room below it", seed, q.last)
			}
			lo = q.last - 1<<20 // the next phase starts before this one's last
		}
	}
}

func vtOf(t *task) any {
	if t == nil {
		return nil
	}
	return t.vt
}

// TestSoloWindow pins the controller's choice of mode for a window from
// the last measured time of each mode.
func TestSoloWindow(t *testing.T) {
	const fast, slow = time.Millisecond, 2 * time.Millisecond
	for _, c := range []struct {
		name       string
		n          uint64
		team, solo time.Duration
		want       bool
	}{
		{"the first window is team", 0, 0, 0, false},
		{"the first window is team even after a faster solo one", 0, slow, fast, false},
		{"the second window is solo", 1, fast, 0, true},
		{"the second window is solo even after a faster team one", 1, fast, slow, true},
		{"solo was faster", 2, slow, fast, true},
		{"team was faster", 3, fast, slow, false},
		{"a tie keeps team", 5, fast, fast, false},
		{"the 16th window re-measures team", modeRecheck, slow, fast, false},
		{"the 32nd window re-measures solo", 2 * modeRecheck, fast, slow, true},
		{"a re-measure after a tie runs solo", 3 * modeRecheck, fast, fast, true},
		{"the window after a re-measure runs the faster mode", modeRecheck + 1, slow, fast, true},
	} {
		if got := soloWindow(c.n, c.team, c.solo); got != c.want {
			t.Errorf("%s: soloWindow(%d, %v, %v) = %v, want %v", c.name, c.n, c.team, c.solo, got, c.want)
		}
	}
}
