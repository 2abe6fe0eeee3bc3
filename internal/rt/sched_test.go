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

// TestWindowLocked table-tests the controller's step at a window's last
// commit and at a re-measure's checks, on preset state: the window has
// committed 1,000 operations in 5 µs, 5 ns each. A window of the kept
// mode records its time per operation, and the window after it
// re-measures the other mode once it is due; a re-measure that costs
// less at its last commit switches the mode and resets the gap to
// modeRecheck; one that costs more or as much, at its end or at an
// earlier check, keeps the mode and doubles the gap, up to modeBackoff;
// one that costs less at an earlier check runs on.
func TestWindowLocked(t *testing.T) {
	type state struct {
		solo, trial   bool
		window, gap   uint64
		recheck, left uint64 // left: commits to the window's end
		perOp         float64
	}
	for _, c := range []struct {
		name     string
		in, want state
		newStart bool // a new window opened at the step's time
	}{
		{"window 0 records its time, and window 1 re-measures solo",
			state{},
			state{solo: true, trial: true, window: 1, left: modeWindow, perOp: 5}, true},
		{"a kept team window records its time",
			state{window: 3, gap: 16, recheck: 17, perOp: 9},
			state{window: 4, gap: 16, recheck: 17, left: modeWindow, perOp: 5}, true},
		{"a kept solo window before a re-measure opens it in team mode",
			state{solo: true, window: 16, gap: 16, recheck: 17, perOp: 9},
			state{trial: true, window: 17, gap: 16, recheck: 17, left: modeWindow, perOp: 5}, true},
		{"a faster re-measure switches the mode at its end and resets the gap",
			state{solo: true, trial: true, window: 1, gap: 64, perOp: 10},
			state{solo: true, window: 2, gap: modeRecheck, recheck: 1 + modeRecheck, left: modeWindow, perOp: 5}, true},
		{"a slower re-measure keeps the mode at its end and doubles the gap",
			state{solo: true, trial: true, window: 1, gap: 16, perOp: 2},
			state{window: 2, gap: 32, recheck: 33, left: modeWindow, perOp: 2}, true},
		{"a tie keeps the mode",
			state{trial: true, window: 1, gap: 16, perOp: 5},
			state{solo: true, window: 2, gap: 32, recheck: 33, left: modeWindow, perOp: 5}, true},
		{"the first lost re-measure sets the gap to modeRecheck",
			state{solo: true, trial: true, window: 1, perOp: 2},
			state{window: 2, gap: modeRecheck, recheck: 1 + modeRecheck, left: modeWindow, perOp: 2}, true},
		{"a slower re-measure is cut short at a check",
			state{solo: true, trial: true, window: 7, gap: 64, left: modeWindow - modeCheck, perOp: 2},
			state{window: 8, gap: 128, recheck: 135, left: modeWindow, perOp: 2}, true},
		{"the gap stops doubling at modeBackoff",
			state{solo: true, trial: true, window: 9, gap: modeBackoff, left: modeCheck, perOp: 2},
			state{window: 10, gap: modeBackoff, recheck: 9 + modeBackoff, left: modeWindow, perOp: 2}, true},
		{"a faster re-measure runs on at a check",
			state{solo: true, trial: true, window: 7, gap: 64, left: modeCheck, perOp: 10},
			state{solo: true, trial: true, window: 7, gap: 64, left: modeCheck, perOp: 10}, false},
	} {
		const commits = 1 << 20
		start := time.Unix(0, 0)
		r := &Runtime{solo: c.in.solo, trial: c.in.trial, window: c.in.window, gap: c.in.gap,
			recheck: c.in.recheck, perOp: c.in.perOp, commits: commits, winEnd: commits + c.in.left,
			winStart: start, winOps: 1000}
		now := start.Add(5 * time.Microsecond)
		r.windowLocked(now)
		got := state{r.solo, r.trial, r.window, r.gap, r.recheck, r.winEnd - commits, r.perOp}
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
		if opened := r.winStart.Equal(now) && r.winOps == 0; opened != c.newStart {
			t.Errorf("%s: new window opened = %v, want %v", c.name, opened, c.newStart)
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
