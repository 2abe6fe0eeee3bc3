package rt

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
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

// TestRunnableLocked table-tests the one dispatch test, given the
// earliest running attempt: a solo window admits no task while an
// attempt runs, a full commit queue admits only a task that precedes its
// head (§4.7), and rt-conservative holds a task back behind an earlier
// running or queued timestamp.
func TestRunnableLocked(t *testing.T) {
	for _, c := range []struct {
		name, backend string
		solo          bool
		ready         []uint64 // ready timestamps
		run           uint64   // the running attempt's timestamp, 0 for none
		queued        []uint64 // commit-queue timestamps; the queue holds 2
		want          bool
	}{
		{"solo with a running attempt", "rt", true, []uint64{5}, 1, nil, false},
		{"solo with none and a task ready", "rt", true, []uint64{5}, 0, nil, true},
		{"solo with none and no task ready", "rt", true, nil, 0, nil, false},
		{"team with a running attempt", "rt", false, []uint64{5}, 1, nil, true},
		{"a full queue admits a task before its head", "rt", false, []uint64{5}, 0, []uint64{6, 7}, true},
		{"a full queue holds back a task after its head", "rt", false, []uint64{8}, 0, []uint64{6, 7}, false},
		{"a queue with room admits a task after its head", "rt", false, []uint64{8}, 0, []uint64{6}, true},
		{"speculative runs ahead of a running attempt", "rt", false, []uint64{5}, 4, nil, true},
		{"conservative holds back behind an earlier running timestamp", "rt-conservative", false, []uint64{5}, 4, nil, false},
		{"conservative runs beside a running attempt at its timestamp", "rt-conservative", false, []uint64{5}, 5, nil, true},
		{"conservative holds back behind an earlier queued timestamp", "rt-conservative", false, []uint64{5}, 0, []uint64{4}, false},
	} {
		cfg := core.DefaultConfig(2)
		cfg.Backend = c.backend
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r.solo, r.commitCap = c.solo, 2
		for _, ts := range c.queued {
			r.enqueueLocked(guest.TaskDesc{TS: ts})
			r.commitQ.push(r.ready.pop())
		}
		for _, ts := range c.ready {
			r.enqueueLocked(guest.TaskDesc{TS: ts})
		}
		var run *task
		if c.run != 0 {
			run = &task{vt: vt.Time{TS: c.run}}
		}
		if got := r.runnableLocked(run); got != c.want {
			t.Errorf("%s: runnableLocked = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRuntimeLayout: the fields a worker reads while it runs a task
// outside the lock, store and fns, end at least 128 bytes before mu, the
// first field the lock's holder writes, so they share neither a cache
// line nor the adjacent line that x86 prefetchers fetch with it. With
// them next to mu, rt-large ran 1.0% slower at 2 workers.
func TestRuntimeLayout(t *testing.T) {
	var r Runtime
	end := max(unsafe.Offsetof(r.store)+unsafe.Sizeof(r.store), unsafe.Offsetof(r.fns)+unsafe.Sizeof(r.fns))
	if gap := unsafe.Offsetof(r.mu) - end; unsafe.Offsetof(r.mu) < end || gap < 128 {
		t.Errorf("store and fns end at byte %d, mu starts at %d: want mu at least 128 bytes after them", end, unsafe.Offsetof(r.mu))
	}
}
