package rt

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
)

func testConfig(t *testing.T, cores int, backend string) core.Config {
	t.Helper()
	cfg := core.DefaultConfig(cores)
	cfg.Backend = backend
	return cfg
}

// program registers fns under names, positionally, in one function table.
func program(fns []guest.TaskFn, names []string) *guest.FnTable {
	ft := &guest.FnTable{}
	for i, fn := range fns {
		ft.Fn(names[i], fn)
	}
	return ft
}

// runProgram builds a runtime for one function table, enqueues roots,
// and drains a single phase.
func runProgram(t *testing.T, cfg core.Config, fns []guest.TaskFn, names []string, roots []guest.TaskDesc) (*Runtime, core.PhaseStats, error) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program(fns, names))
	for _, d := range roots {
		r.EnqueueRootDesc(d)
	}
	ps, err := r.RunPhase()
	return r, ps, err
}

// TestSequentialSemantics runs a program whose result depends on task
// order — each task multiplies an accumulator by a constant and adds its
// timestamp — so any out-of-order commit produces a different value.
func TestSequentialSemantics(t *testing.T) {
	const acc = uint64(1 << 12)
	const n = 200
	body := func(e guest.TaskEnv) {
		e.Store(acc, e.Load(acc)*3+e.Timestamp())
	}
	want := uint64(0)
	for ts := uint64(1); ts <= n; ts++ {
		want = want*3 + ts
	}
	for _, backend := range []string{"rt", "rt-conservative"} {
		for _, cores := range []int{1, 4, 16} {
			cfg := testConfig(t, cores, backend)
			var roots []guest.TaskDesc
			// Enqueue in a scrambled order; virtual time must still
			// serialize by timestamp.
			for i := 0; i < n; i++ {
				ts := uint64((i*7)%n + 1)
				roots = append(roots, guest.TaskDesc{Fn: 0, TS: ts})
			}
			r, ps, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"mul"}, roots)
			if err != nil {
				t.Fatalf("%s/%d: RunPhase: %v", backend, cores, err)
			}
			if got := r.Mem().Load(acc); got != want {
				t.Errorf("%s/%d: acc = %d, want %d", backend, cores, got, want)
			}
			if ps.Commits < n {
				t.Errorf("%s/%d: commits = %d, want >= %d", backend, cores, ps.Commits, n)
			}
			st := r.Snapshot()
			if st.Backend != backend {
				t.Errorf("Stats.Backend = %q, want %q", st.Backend, backend)
			}
			if st.Cycles != 0 {
				t.Errorf("%s: native Stats.Cycles = %d, want 0", backend, st.Cycles)
			}
			if st.WallNS == 0 {
				t.Errorf("%s: native Stats.WallNS = 0, want measured time", backend)
			}
		}
	}
}

// TestChildTasks checks commit-time child enqueue across generations: a
// chain of tasks each spawning its successor, walking a counter.
func TestChildTasks(t *testing.T) {
	const cell = uint64(1 << 12)
	const depth = 500
	body := func(e guest.TaskEnv) {
		v := e.Load(cell)
		e.Store(cell, v+1)
		if v+1 < depth {
			e.Enqueue(0, e.Timestamp()+1)
		}
	}
	for _, backend := range []string{"rt", "rt-conservative"} {
		cfg := testConfig(t, 8, backend)
		r, ps, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"chain"},
			[]guest.TaskDesc{{Fn: 0, TS: 0}})
		if err != nil {
			t.Fatalf("%s: RunPhase: %v", backend, err)
		}
		if got := r.Mem().Load(cell); got != depth {
			t.Errorf("%s: cell = %d, want %d", backend, got, depth)
		}
		// The root was enqueued before the phase began; the phase's own
		// enqueues are the depth-1 commit-time children.
		if ps.Enqueues != depth-1 {
			t.Errorf("%s: enqueues = %d, want %d", backend, ps.Enqueues, depth-1)
		}
	}
}

// TestDeterministicFinalMemory requires bit-identical final memory
// across core counts and repeated runs: the commit order is a pure
// function of the program, never of worker interleaving.
func TestDeterministicFinalMemory(t *testing.T) {
	build := func() ([]guest.TaskFn, []guest.TaskDesc) {
		const base = uint64(1 << 12)
		body := func(e guest.TaskEnv) {
			slot := base + (e.Arg(0)%64)*8
			e.Store(slot, e.Load(slot)*7+e.Timestamp()+e.Arg(0))
			if e.Arg(0) < 3 {
				e.Enqueue(0, e.Timestamp()+e.Arg(0)+1, e.Arg(0)+100)
			}
		}
		var roots []guest.TaskDesc
		for i := uint64(0); i < 300; i++ {
			roots = append(roots, guest.TaskDesc{Fn: 0, TS: i % 17, Args: [3]uint64{i}})
		}
		return []guest.TaskFn{body}, roots
	}
	var want map[uint64]uint64
	for _, cores := range []int{1, 4, 16, 16} {
		fns, roots := build()
		r, _, err := runProgram(t, testConfig(t, cores, "rt"), fns, []string{"mix"}, roots)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		snap := r.Mem().Snapshot()
		if want == nil {
			want = snap
			continue
		}
		if !reflect.DeepEqual(snap, want) {
			t.Fatalf("cores=%d: final memory differs from 1-core run", cores)
		}
	}
}

// TestContendedCounter hammers one word from many same-timestamp tasks
// and checks that no update is lost. Whether two attempts actually
// conflict depends on how the workers interleave; TestForcedAbort makes
// the abort-and-retry path certain.
func TestContendedCounter(t *testing.T) {
	const cell = uint64(1 << 12)
	const n = 400
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+1)
	}
	cfg := testConfig(t, 16, "rt")
	var roots []guest.TaskDesc
	for i := 0; i < n; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: 1})
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"inc"}, roots)
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(cell); got != n {
		t.Errorf("cell = %d, want %d (lost updates)", got, n)
	}
}

// TestForcedAbort drives the abort-and-retry path deterministically on
// two workers. The task at ts 2 loads a word and, on its first attempt
// only, signals the task at ts 1, which waits for that signal before it
// stores the word. The ts-2 attempt has then read a value its
// predecessor overwrites, so it must fail validation, abort and rerun
// against the committed store. Its tasks wait on each other through host
// state, which a solo window would deadlock: the run must end inside its
// first window, which is team.
func TestForcedAbort(t *testing.T) {
	const word, out = uint64(1 << 12), uint64(1<<12 + 64)
	loaded := make(chan struct{})
	var first sync.Once
	store := func(e guest.TaskEnv) {
		<-loaded
		e.Store(word, 7)
	}
	load := func(e guest.TaskEnv) {
		v := e.Load(word)
		first.Do(func() { close(loaded) })
		e.Store(out, v+1)
	}
	r, ps, err := runProgram(t, testConfig(t, 2, "rt"), []guest.TaskFn{store, load}, []string{"store", "load"},
		[]guest.TaskDesc{{Fn: 0, TS: 1}, {Fn: 1, TS: 2}})
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(word); got != 7 {
		t.Errorf("word = %d, want 7", got)
	}
	if got := r.Mem().Load(out); got != 8 {
		t.Errorf("out = %d, want 8 (the ts-2 task committed a stale read)", got)
	}
	if ps.Commits != 2 || ps.Aborts < 1 {
		t.Errorf("commits = %d, aborts = %d; want 2 commits and at least 1 abort", ps.Commits, ps.Aborts)
	}
}

// TestEarliestAttemptKeepsNoReadSet: on two workers, the ts-1 task is
// dispatched first, while nothing else runs, so it is the earliest
// attempt and its load records nothing. It waits until the ts-2 task,
// dispatched while ts 1 runs, has loaded the same word twice. Those
// loads are one entry in ts 2's read set, for validation at its commit;
// the second is served from it. ts 2 then increments the word. A second
// phase repeats the run: ts 2's tracked load reads the word phase 1
// committed, at version 1, and validates, since versions carry across
// phases. ts 1 waits on ts 2 through host state, which a solo window
// would deadlock: each phase must end inside its first window, which is
// team.
func TestEarliestAttemptKeepsNoReadSet(t *testing.T) {
	const word = uint64(1 << 12)
	var loaded chan struct{}
	var once *sync.Once
	var reads [2]int
	var seen readRec
	first := func(e guest.TaskEnv) {
		e.Load(word)
		<-loaded
		reads[0] = len(e.(*taskEnv).reads.addrs)
	}
	second := func(e guest.TaskEnv) {
		v := e.Load(word)
		e.Load(word)
		env := e.(*taskEnv)
		reads[1], seen = len(env.reads.addrs), env.readRecs[0]
		once.Do(func() { close(loaded) })
		e.Store(word, v+1)
	}
	r, err := New(testConfig(t, 2, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program([]guest.TaskFn{first, second}, []string{"first", "second"}))
	for phase := uint64(1); phase <= 2; phase++ {
		loaded, once = make(chan struct{}), new(sync.Once)
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 1})
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 1, TS: 2})
		ps, err := r.RunPhase()
		if err != nil {
			t.Fatalf("phase %d: RunPhase: %v", phase, err)
		}
		if reads != [2]int{0, 1} {
			t.Errorf("phase %d: read sets after the loads: ts 1 holds %d, ts 2 holds %d; want 0 and 1", phase, reads[0], reads[1])
		}
		if want := (readRec{val: phase - 1, ver: phase - 1}); seen != want {
			t.Errorf("phase %d: ts 2 read %+v, want %+v", phase, seen, want)
		}
		if ps.Commits != 2 || ps.Aborts != 0 {
			t.Errorf("phase %d: commits = %d, aborts = %d; want 2 and 0", phase, ps.Commits, ps.Aborts)
		}
	}
}

// TestDebugChecksCommitUnderEarliest: under DebugChecks, a commit while
// a running attempt is marked earliest poisons the phase, since nothing
// may commit under the earliest attempt.
func TestDebugChecksCommitUnderEarliest(t *testing.T) {
	cfg := testConfig(t, 2, "rt")
	cfg.DebugChecks = true
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program([]guest.TaskFn{func(guest.TaskEnv) {}}, []string{"nop"}))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.running[1] = &task{desc: guest.TaskDesc{TS: 1}, env: r.getEnvLocked(guest.TaskDesc{TS: 1})}
	r.running[1].env.earliest = true
	if r.commitLocked(&task{desc: guest.TaskDesc{TS: 2}, env: r.getEnvLocked(guest.TaskDesc{TS: 2})}) {
		t.Fatal("a task committed under the earliest attempt")
	}
	if r.err == nil || !strings.Contains(r.err.Error(), "nop(ts=1) ran as the earliest attempt") {
		t.Errorf("err = %v, want the earliest attempt named", r.err)
	}
}

// TestMultiPhase exercises the session surface: memory edits and fresh
// roots between phases, with per-phase counter deltas.
func TestMultiPhase(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+e.Arg(0))
	}
	r, err := New(testConfig(t, 4, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program([]guest.TaskFn{body}, []string{"add"}))
	total := uint64(0)
	for phase := 1; phase <= 3; phase++ {
		add := uint64(phase * 10)
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 0, Args: [3]uint64{add}})
		if got := r.QueuedTasks(); got != 1 {
			t.Fatalf("phase %d: QueuedTasks = %d, want 1", phase, got)
		}
		ps, err := r.RunPhase()
		if err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		total += add
		if ps.Phase != phase || ps.Commits != 1 {
			t.Errorf("phase %d: got Phase=%d Commits=%d", phase, ps.Phase, ps.Commits)
		}
		if got := r.Mem().Load(cell); got != total {
			t.Errorf("phase %d: cell = %d, want %d", phase, got, total)
		}
	}
	st := r.Snapshot()
	if st.Commits != 3 {
		t.Errorf("cumulative commits = %d, want 3", st.Commits)
	}
}

// TestAllocFree exercises in-task allocation and commit-time free.
func TestAllocFree(t *testing.T) {
	const out = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		a := e.Alloc(64)
		e.Store(a, 41)
		e.Store(out, e.Load(a)+1)
		e.Free(a, 64)
	}
	r, _, err := runProgram(t, testConfig(t, 4, "rt"),
		[]guest.TaskFn{body}, []string{"scratch"}, []guest.TaskDesc{{Fn: 0, TS: 0}})
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(out); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
}

// TestSetupAllocFree checks the setup-time allocator surface used by
// Build functions: line alignment and immediate reuse after free.
func TestSetupAllocFree(t *testing.T) {
	r, err := New(testConfig(t, 4, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a := r.SetupAlloc(100)
	if a%64 != 0 {
		t.Errorf("SetupAlloc not line aligned: %#x", a)
	}
	// Setup allocations round to whole lines; freeing the rounded span
	// makes it immediately reusable (no quarantine outside tasks).
	r.SetupFree(a, 128)
	b := r.SetupAlloc(100)
	if b != a {
		t.Errorf("freed setup region not reused: got %#x, want %#x", b, a)
	}
}

// TestImpureTaskDetected is the DebugChecks divergence check: a task
// whose writes depend on captured host state (not guest memory) commits
// differently on re-execution and must be reported, not silently
// committed. At 1 worker the task runs as the earliest attempt and
// stores in place, so the failed check must also take its store back out
// of memory.
func TestImpureTaskDetected(t *testing.T) {
	const cell = uint64(1 << 12)
	for _, workers := range []int{1, 4} {
		hostCounter := uint64(0)
		impure := func(e guest.TaskEnv) {
			hostCounter++ // host state: invisible to versioned memory
			e.Store(cell, hostCounter)
		}
		cfg := testConfig(t, workers, "rt")
		cfg.DebugChecks = true
		r, _, err := runProgram(t, cfg, []guest.TaskFn{impure}, []string{"impure"},
			[]guest.TaskDesc{{Fn: 0, TS: 0}})
		if err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("workers=%d: impure task: err = %v, want divergence error naming the task", workers, err)
		}
		if !strings.Contains(err.Error(), "impure") {
			t.Errorf("workers=%d: divergence error should name the task: %v", workers, err)
		}
		if got := r.Mem().Load(cell); got != 0 {
			t.Errorf("workers=%d: cell = %d after the failed check, want 0: nothing committed", workers, got)
		}
	}
}

// TestPureTaskPassesDebugChecks: the divergence check must not flag a
// pure program, including one with real conflicts and retries, and the
// check's re-execution must leave final memory as the run committed it,
// at 1 worker, where every attempt stores in place, and at 16.
func TestPureTaskPassesDebugChecks(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+1)
		e.Store(cell+8, e.Load(cell))
	}
	for _, workers := range []int{1, 16} {
		cfg := testConfig(t, workers, "rt")
		cfg.DebugChecks = true
		var roots []guest.TaskDesc
		for i := 0; i < 200; i++ {
			roots = append(roots, guest.TaskDesc{Fn: 0, TS: 1})
		}
		r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"inc"}, roots)
		if err != nil {
			t.Fatalf("workers=%d: pure contended program flagged: %v", workers, err)
		}
		if got, want := r.Mem().Snapshot(), map[uint64]uint64{cell: 200, cell + 8: 200}; !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: memory = %v, want %v", workers, got, want)
		}
	}
}

// TestRunawayTaskReported: a task that loops forever on consistent reads
// trips the op cap and surfaces as an error instead of hanging the run.
func TestRunawayTaskReported(t *testing.T) {
	if testing.Short() {
		t.Skip("spins ~16M guest ops")
	}
	runaway := func(e guest.TaskEnv) {
		for {
			e.Work(1 << 16)
		}
	}
	_, _, err := runProgram(t, testConfig(t, 4, "rt"),
		[]guest.TaskFn{runaway}, []string{"spin"}, []guest.TaskDesc{{Fn: 0, TS: 0}})
	if err == nil || !strings.Contains(err.Error(), "infinite loop") {
		t.Fatalf("runaway task: err = %v, want op-cap error", err)
	}
}

// TestChildTimestampOrder: enqueuing a child before its parent's
// timestamp must panic with the guest package's message, matching the
// simulator's task-environment contract.
func TestChildTimestampOrder(t *testing.T) {
	bad := func(e guest.TaskEnv) {
		e.Enqueue(0, e.Timestamp()-1)
	}
	defer func() {
		v := recover()
		s, ok := v.(string)
		if !ok || !strings.Contains(s, "before parent") {
			t.Fatalf("recovered %v, want child-timestamp panic", v)
		}
	}()
	// Single worker so the panic propagates on this goroutine's stack is
	// not guaranteed; run the body directly against an env instead.
	r, err := New(testConfig(t, 1, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	env := newTaskEnv(r, guest.TaskDesc{Fn: 0, TS: 5})
	bad(env)
}

// TestChildLimit: the ninth child of one attempt, forks included, panics
// with the guest package's §4.1 message on both native backends, and a
// reset attempt counts from zero again.
func TestChildLimit(t *testing.T) {
	want := "guest: task exceeded the 8-child hardware limit; enqueue a spawner task instead (§4.1)"
	for _, backend := range []string{"rt", "rt-conservative"} {
		r, err := New(testConfig(t, 1, backend))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		desc := guest.TaskDesc{Fn: 0, TS: 5}
		env := newTaskEnv(r, desc)
		eight := func() {
			for range guest.MaxChildren / 2 {
				env.Enqueue(0, 6)
				env.Fork(0)
			}
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			eight()
			env.EnqueueArgs(0, 7, [3]uint64{})
			return nil
		}()
		if got != want {
			t.Fatalf("%s: recovered %v, want %q", backend, got, want)
		}
		env.reset(desc)
		eight()
	}
}

// TestConservativeNoCrossTimestampSpeculation: under rt-conservative,
// tasks at distinct timestamps never conflict (each wave drains before
// the next starts), so a cross-timestamp-only contention pattern must
// finish with zero aborts.
func TestConservativeNoCrossTimestampSpeculation(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+1)
	}
	cfg := testConfig(t, 16, "rt-conservative")
	var roots []guest.TaskDesc
	for i := 0; i < 100; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: uint64(i)}) // distinct timestamps
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"inc"}, roots)
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(cell); got != 100 {
		t.Errorf("cell = %d, want 100", got)
	}
	if st := r.Snapshot(); st.Aborts != 0 {
		t.Errorf("conservative mode aborted %d times on cross-timestamp-only contention", st.Aborts)
	}
}

// TestInvalidBackendConfig: rt.New refuses a malformed configuration
// with the shared config validation error. Backend names are checked by
// backend.New.
func TestInvalidBackendConfig(t *testing.T) {
	bad := core.DefaultConfig(4)
	bad.Backend = "rt"
	bad.Tiles = 0
	if _, err := New(bad); err == nil {
		t.Error("New with zero tiles succeeded, want error")
	}
}

// TestRepeatableReads: a task that reads the same word twice must see
// one value even if a concurrent commit lands between the loads. The
// read cache makes this structural, so just pin the single-task view.
func TestRepeatableReads(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		a := e.Load(cell)
		b := e.Load(cell)
		if a != b {
			panic("non-repeatable read")
		}
		e.Store(cell, a+1)
	}
	cfg := testConfig(t, 16, "rt")
	var roots []guest.TaskDesc
	for i := 0; i < 200; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: 1})
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"rr"}, roots)
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(cell); got != 200 {
		t.Errorf("cell = %d, want 200", got)
	}
}

// TestHintedEnqueue runs a program whose children carry spatial hints.
// The native scheduler places work by virtual time only, so the hint
// must be carried without changing semantics: same final memory and
// counts as the unhinted twin, and the phase report is numbered 1.
func TestHintedEnqueue(t *testing.T) {
	const cell = uint64(1 << 12)
	const fanout = guest.MaxChildren
	root := func(e guest.TaskEnv) {
		for i := uint64(0); i < fanout; i++ {
			e.EnqueueHinted(1, e.Timestamp()+1+i, i%4, [3]uint64{i, 0, 0})
		}
	}
	leaf := func(e guest.TaskEnv) {
		e.Store(cell+8*e.Arg(0), e.Arg(0)+1)
	}
	for _, backend := range []string{"rt", "rt-conservative"} {
		cfg := testConfig(t, 4, backend)
		r, ps, err := runProgram(t, cfg, []guest.TaskFn{root, leaf}, []string{"root", "leaf"},
			[]guest.TaskDesc{{Fn: 0, TS: 0}})
		if err != nil {
			t.Fatalf("%s: RunPhase: %v", backend, err)
		}
		if ps.Commits != fanout+1 {
			t.Errorf("%s: commits = %d, want %d", backend, ps.Commits, fanout+1)
		}
		for i := uint64(0); i < fanout; i++ {
			if got := r.Mem().Load(cell + 8*i); got != i+1 {
				t.Fatalf("%s: word %d = %d, want %d", backend, i, got, i+1)
			}
		}
		if ps.Phase != 1 {
			t.Errorf("%s: Phase = %d after one phase, want 1", backend, ps.Phase)
		}
	}
}

// TestFailedPhaseKeepsCommits: a phase that fails leaves its committed
// prefix in guest memory, which Mem promises holds exactly the committed
// state between phases. The runaway task runs as the earliest attempt
// and stores a second word in place twice before it spins; the failure
// must take those stores back out, although the undo log keeps only the
// first.
func TestFailedPhaseKeepsCommits(t *testing.T) {
	const cell, spun = uint64(1 << 12), uint64(1<<12 + 8)
	set := func(e guest.TaskEnv) { e.Store(cell, 7) }
	runaway := func(e guest.TaskEnv) {
		e.Store(spun, 1)
		e.Store(spun, 2)
		for {
			e.Work(1 << 16)
		}
	}
	r, _, err := runProgram(t, testConfig(t, 1, "rt"),
		[]guest.TaskFn{set, runaway}, []string{"set", "spin"},
		[]guest.TaskDesc{{Fn: 0, TS: 0}, {Fn: 1, TS: 1}})
	if err == nil || !strings.Contains(err.Error(), "infinite loop") {
		t.Fatalf("err = %v, want op-cap error", err)
	}
	if c := r.Snapshot().Commits; c != 1 || r.inPhase {
		t.Fatalf("commits = %d, in phase = %v; want 1 commit, quiesced", c, r.inPhase)
	}
	if got := r.Mem().Load(cell); got != 7 {
		t.Errorf("committed word = %d after the failed phase, want 7", got)
	}
	if got := r.Mem().Load(spun); got != 0 {
		t.Errorf("the runaway's word = %d after the failed phase, want 0: it never committed", got)
	}
}

// TestRepeatedStoresKeepOneUndoRecord: the earliest attempt logs the
// word each in-place store replaced, but a run of stores to one word
// needs only its first record, the one rollback restores last. A body
// that stores one word 1,024 times leaves one record in the log.
func TestRepeatedStoresKeepOneUndoRecord(t *testing.T) {
	const word = uint64(1 << 12)
	records := -1
	body := func(e guest.TaskEnv) {
		for i := range uint64(1024) {
			e.Store(word, i+1)
		}
		records = len(e.(*taskEnv).r.store.undo)
	}
	r, _, err := runProgram(t, testConfig(t, 1, "rt"), []guest.TaskFn{body}, []string{"repeat"},
		[]guest.TaskDesc{{Fn: 0, TS: 1}})
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if records != 1 {
		t.Errorf("the undo log holds %d records after 1,024 stores to one word, want 1", records)
	}
	if got := r.Mem().Load(word); got != 1024 {
		t.Errorf("word = %d, want 1024", got)
	}
}

// alternate stores words a and b in turn, 1<<17 times each, and returns
// the undo log's peak length, read after every store. Each store
// replaces a word other than the one logged last, so none is skipped.
func alternate(e guest.TaskEnv, a, b uint64) (peak int) {
	s := e.(*taskEnv).r.store
	for i := range uint64(1 << 17) {
		e.Store(a, i+1)
		peak = max(peak, len(s.undo))
		e.Store(b, i+1)
		peak = max(peak, len(s.undo))
	}
	return peak
}

// TestAlternatingStoresBoundTheUndoLog: the earliest attempt stores two
// words alternately, 1<<18 stores in all. At undoCap records it must
// finish as a tracked attempt, so the log never holds more, and still
// commit its last values. A later task sums the two words; on two
// workers it may read them while they are in place, and then the
// rollback's version bumps must fail its reads.
func TestAlternatingStoresBoundTheUndoLog(t *testing.T) {
	const a, b, sum = uint64(1 << 12), uint64(1<<12 + 8), uint64(1<<12 + 16)
	for _, workers := range []int{1, 2} {
		peak := -1
		body := func(e guest.TaskEnv) { peak = alternate(e, a, b) }
		add := func(e guest.TaskEnv) { e.Store(sum, e.Load(a)+e.Load(b)) }
		r, _, err := runProgram(t, testConfig(t, workers, "rt"),
			[]guest.TaskFn{body, add}, []string{"alternate", "add"},
			[]guest.TaskDesc{{Fn: 0, TS: 1}, {Fn: 1, TS: 2}})
		if err != nil {
			t.Fatalf("workers=%d: RunPhase: %v", workers, err)
		}
		if peak > undoCap {
			t.Errorf("workers=%d: the undo log peaked at %d records, want at most %d", workers, peak, undoCap)
		}
		if got, want := r.Mem().Snapshot(), map[uint64]uint64{a: 1 << 17, b: 1 << 17, sum: 1 << 18}; !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: memory = %v, want %v", workers, got, want)
		}
	}
}

// TestAlternatingRunawayRollsBack: an earliest attempt that outgrows the
// undo log and then spins to the op cap leaves the host's words in
// memory, although it stored them in place before it finished tracked.
func TestAlternatingRunawayRollsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("spins ~16M guest ops")
	}
	const a, b = uint64(1 << 12), uint64(1<<12 + 8)
	runaway := func(e guest.TaskEnv) {
		alternate(e, a, b)
		for {
			e.Work(1 << 16)
		}
	}
	r, err := New(testConfig(t, 1, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program([]guest.TaskFn{runaway}, []string{"spin"}))
	r.Mem().Store(a, 5)
	r.Mem().Store(b, 6)
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 1})
	if _, err := r.RunPhase(); err == nil || !strings.Contains(err.Error(), "infinite loop") {
		t.Fatalf("err = %v, want op-cap error", err)
	}
	if got, want := r.Mem().Snapshot(), map[uint64]uint64{a: 5, b: 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("memory after the failed phase = %v, want the host's words %v", got, want)
	}
}

// TestAlternatingStoresPassDebugChecks: an attempt that finishes tracked
// after outgrowing the undo log commits under DebugChecks, whose
// re-execution buffers every store from the start.
func TestAlternatingStoresPassDebugChecks(t *testing.T) {
	const a, b = uint64(1 << 12), uint64(1<<12 + 8)
	cfg := testConfig(t, 1, "rt")
	cfg.DebugChecks = true
	body := func(e guest.TaskEnv) { alternate(e, a, b) }
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"alternate"}, []guest.TaskDesc{{Fn: 0, TS: 1}})
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got, want := r.Mem().Snapshot(), map[uint64]uint64{a: 1 << 17, b: 1 << 17}; !reflect.DeepEqual(got, want) {
		t.Errorf("memory = %v, want %v", got, want)
	}
}

// TestPoisonedPhaseRollsBackInPlace: on two workers, the ts-1 task is the
// earliest attempt and stores a word in place over a value the host set
// up. The ts-2 task, dispatched while ts 1 runs, waits for that store and
// then poisons the phase, as a failed DebugChecks check can while the
// earliest attempt runs; ts 1 waits for the poison, so it retires into
// the failed phase. Memory must then hold only committed words: the host
// value.
func TestPoisonedPhaseRollsBackInPlace(t *testing.T) {
	const word = uint64(1 << 12)
	stored, poisoned := make(chan struct{}), make(chan struct{})
	var r *Runtime
	first := func(e guest.TaskEnv) {
		e.Store(word, 9)
		close(stored)
		<-poisoned
	}
	later := func(guest.TaskEnv) {
		<-stored
		r.mu.Lock()
		r.failLocked(errors.New("poisoned by a later attempt"))
		r.mu.Unlock()
		close(poisoned)
	}
	r, err := New(testConfig(t, 2, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program([]guest.TaskFn{first, later}, []string{"first", "later"}))
	r.Mem().Store(word, 5)
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 1})
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 1, TS: 2})
	if _, err := r.RunPhase(); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("err = %v, want the poison", err)
	}
	if got := r.Mem().Snapshot(); !reflect.DeepEqual(got, map[uint64]uint64{word: 5}) {
		t.Errorf("memory after the failed phase = %v, want only the host's word %#x = 5", got, word)
	}
}

// TestTrackedPanicRetriesUnderInPlace: the ts-1 task, the earliest
// attempt, stores a then b in place; serially a == b whenever ts 2 reads
// them, and ts 2 panics otherwise. ts 2's first attempt runs between the
// two stores, reads a torn pair whose versions both still match, and
// panics. Its reads include a word stored in place, so the panic must
// count as misspeculation and retry, not crash the run: ts 1 makes its
// second store only once ts 2 has aborted, or has read a and b equal,
// which fails the test instead of hanging it.
func TestTrackedPanicRetriesUnderInPlace(t *testing.T) {
	const a, b = uint64(1 << 12), uint64(1<<12 + 8)
	stored := make(chan struct{})
	var torn atomic.Uint64
	var clean atomic.Bool
	var r *Runtime
	first := func(e guest.TaskEnv) {
		e.Store(a, 1)
		close(stored)
		for r.Snapshot().Aborts == 0 && !clean.Load() {
			runtime.Gosched()
		}
		e.Store(b, 1)
	}
	later := func(e guest.TaskEnv) {
		<-stored
		if e.Load(a) != e.Load(b) {
			torn.Add(1)
			panic("torn read")
		}
		clean.Store(true)
		e.Store(b+8, 1)
	}
	r, err := New(testConfig(t, 2, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(program([]guest.TaskFn{first, later}, []string{"first", "later"}))
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 1})
	r.EnqueueRootDesc(guest.TaskDesc{Fn: 1, TS: 2})
	ps, err := r.RunPhase()
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if n := torn.Load(); ps.Commits != 2 || ps.Aborts < n || n < 1 {
		t.Errorf("commits = %d, aborts = %d, torn reads = %d; want 2 commits and at least 1 torn read, each retried", ps.Commits, ps.Aborts, n)
	}
	if got, want := r.Mem().Snapshot(), map[uint64]uint64{a: 1, b: 1, b + 8: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("memory = %v, want %v", got, want)
	}
}

// incArg0 increments the word at its first argument.
func incArg0(e guest.TaskEnv) {
	a := e.Arg(0)
	e.Store(a, e.Load(a)+1)
}

// chainStep increments the word at its first argument and, while its
// second argument (the steps left) is nonzero, enqueues the next step one
// timestamp later.
func chainStep(e guest.TaskEnv) {
	incArg0(e)
	if left := e.Arg(1); left > 0 {
		e.EnqueueArgs(0, e.Timestamp()+1, [3]uint64{e.Arg(0), left - 1})
	}
}

// startedRuntime returns an rt runtime whose program is fn, parked before
// its first phase, and a setup allocation of words words.
func startedRuntime(tb testing.TB, workers int, fn guest.TaskFn, words uint64) (*Runtime, uint64) {
	cfg := core.DefaultConfig(workers)
	cfg.Backend = "rt"
	r, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	r.SetProgram(program([]guest.TaskFn{fn}, []string{"fn"}))
	return r, r.SetupAlloc(words * 8)
}

// independentRuntime returns a started runtime with n queued root tasks
// that each increment their own word: no conflicts, no children.
func independentRuntime(tb testing.TB, workers, n int) *Runtime {
	r, base := startedRuntime(tb, workers, incArg0, uint64(n))
	for i := range uint64(n) {
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: i, Args: [3]uint64{base + i*8}})
	}
	return r
}

// chainRuntime returns a started runtime with n queued root tasks, each
// heading a chain of length children that increment the root's word.
func chainRuntime(tb testing.TB, workers, n int, length uint64) *Runtime {
	r, base := startedRuntime(tb, workers, chainStep, uint64(n))
	for i := range uint64(n) {
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, Args: [3]uint64{base + i*8, length}})
	}
	return r
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestAllocsPerTask pins the hot path's heap allocations: dispatching and
// committing a task allocates nothing, since attempt buffers and task
// records are recycled. A flood of roots carves its records at setup, one
// allocation per slab of 64; chains of children reuse the records of
// committed tasks.
func TestAllocsPerTask(t *testing.T) {
	if raceEnabled {
		// The race detector randomizes goroutine scheduling, so how many
		// attempts wait to commit at once, each holding a buffer, and with
		// it the size of the buffer pool, is up to the schedule.
		t.Skip("allocation counts depend on the schedule under -race")
	}
	const roots, length = 64, 200
	for _, in := range []struct {
		name  string
		tasks uint64
		limit float64
		build func(workers int) *Runtime
	}{
		{"flood", 10000, 0.1, func(w int) *Runtime { return independentRuntime(t, w, 10000) }},
		{"chains", roots * (length + 1), 0.1, func(w int) *Runtime { return chainRuntime(t, w, roots, length) }},
	} {
		for _, workers := range []int{1, 2} {
			var commits uint64
			allocs := testing.AllocsPerRun(3, func() {
				ps, err := in.build(workers).RunPhase()
				if err != nil {
					t.Fatalf("%s workers=%d: RunPhase: %v", in.name, workers, err)
				}
				commits = ps.Commits
			})
			if commits != in.tasks {
				t.Fatalf("%s workers=%d: %d commits, want %d", in.name, workers, commits, in.tasks)
			}
			if per := allocs / float64(in.tasks); per > in.limit {
				t.Errorf("%s workers=%d: %.3f allocations per committed task, want at most %g",
					in.name, workers, per, in.limit)
			}
		}
	}
}

// TestModeWindows runs independent tasks at 2 workers across five
// controller windows, so team window 0 is timed, solo window 1
// re-measures and the mode hands over, also under -race, where
// TestAllocsPerTask skips. Every task commits once, and every word
// holds 1.
func TestModeWindows(t *testing.T) {
	const n = 5 * modeWindow
	r := independentRuntime(t, 2, n)
	ps, err := r.RunPhase()
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if ps.Commits != n || ps.Aborts != 0 {
		t.Errorf("commits = %d, aborts = %d; want %d and 0", ps.Commits, ps.Aborts, n)
	}
	words := r.Mem().Snapshot()
	for addr, v := range words {
		if v != 1 {
			t.Errorf("word %#x = %d, want 1", addr, v)
		}
	}
	if len(words) != n {
		t.Errorf("%d words written, want %d", len(words), n)
	}
	if r.window < 4 || r.perOp <= 0 || r.gap < modeRecheck {
		t.Errorf("%d windows, %v ns per operation, gap %d; want at least 4 windows, a time and a re-measure",
			r.window, r.perOp, r.gap)
	}
}

// TestLosingRecheckEndsEarly: a re-measure ends at its first clock read,
// modeCheck commits in, once it costs more per operation than the kept
// mode, instead of running a whole window. The phase's first window is
// preset to re-measure solo against a kept team time of 1 ns per
// operation, which no task matches; the window after it, team, then
// opens at commit modeCheck, and the gap to the next re-measure doubles.
func TestLosingRecheckEndsEarly(t *testing.T) {
	const n = modeWindow
	r := independentRuntime(t, 2, n)
	r.solo, r.trial, r.perOp, r.gap = true, true, 1, modeRecheck
	ps, err := r.RunPhase()
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if ps.Commits != n || ps.Aborts != 0 {
		t.Errorf("commits = %d, aborts = %d; want %d and 0", ps.Commits, ps.Aborts, n)
	}
	if r.window != 1 || r.solo || r.trial || r.gap != 2*modeRecheck || r.perOp != 1 {
		t.Errorf("window %d, solo = %v, trial = %v, gap %d, %v ns per operation; want window 1 of team, gap %d, 1 ns",
			r.window, r.solo, r.trial, r.gap, r.perOp, 2*modeRecheck)
	}
	if start := r.winEnd - modeWindow; start != modeCheck {
		t.Errorf("the re-measure ended at commit %d, want %d", start, modeCheck)
	}
}

// TestSoloToTeamHandover pins the wakeup at a switch from a solo window
// to a team one, at 2 workers. The controller is preset so that the
// phase's first window runs solo, the kept mode, and its second
// re-measures team. In the solo window one worker runs every task while
// the other waits; the second window's first task then waits, for at
// most 10 s, until the next task has run, which only the other worker
// can run: the switch must wake it.
func TestSoloToTeamHandover(t *testing.T) {
	const n = modeWindow + 2
	var ranNext, timedOut atomic.Bool
	body := func(e guest.TaskEnv) {
		switch e.Timestamp() {
		case modeWindow:
			deadline := time.Now().Add(10 * time.Second)
			for !ranNext.Load() {
				if time.Now().After(deadline) {
					timedOut.Store(true)
					break
				}
				runtime.Gosched()
			}
		case modeWindow + 1:
			ranNext.Store(true)
		}
		incArg0(e)
	}
	r, base := startedRuntime(t, 2, body, n)
	for i := range uint64(n) {
		r.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: i, Args: [3]uint64{base + i*8}})
	}
	// Window 2 runs solo, and window 3 re-measures team.
	r.solo, r.window, r.recheck = true, 2, 3
	ps, err := r.RunPhase()
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if timedOut.Load() {
		t.Fatal("the second window's first task waited 10 s for the next one: the switch to team woke no worker")
	}
	if ps.Commits != n || ps.Aborts != 0 {
		t.Errorf("commits = %d, aborts = %d; want %d and 0", ps.Commits, ps.Aborts, n)
	}
	if r.window != 3 || r.solo || !r.trial {
		t.Errorf("the phase ended in window %d, solo = %v, trial = %v; want window 3, a team re-measure",
			r.window, r.solo, r.trial)
	}
}

// TestCommitQueueBound: while the earliest task is slow, the other
// workers run ahead until the commit queue holds CommitQPerCore x Cores
// finished attempts, and then wait (§4.7). Attempts already running when
// the queue fills still join it, at most one per worker. UnboundedQueues
// lifts the bound. The slow root stays slow by waiting for the quick
// bodies to run: for a queue's worth of them when bounded, for all of
// them when unbounded. Neither wait can stall, since nothing commits
// under the root. The root waits on the quick tasks through host state,
// which a solo window would deadlock: the run must end inside its first
// window, which is team.
func TestCommitQueueBound(t *testing.T) {
	const base = uint64(1 << 24)
	const quick, workers = 1024, 4
	// Give every worker a thread, so the quick tasks run while the slow
	// one does even on a one-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0))))
	for _, unbounded := range []bool{false, true} {
		cfg := testConfig(t, workers, "rt")
		cfg.UnboundedQueues = unbounded
		capacity := cfg.CommitQPerCore * cfg.Cores()
		target := int64(capacity)
		if unbounded {
			target = quick
		}
		var ran atomic.Int64
		slow := func(e guest.TaskEnv) {
			for ran.Load() < target {
				runtime.Gosched()
			}
			e.Store(base, 1)
		}
		inc := func(e guest.TaskEnv) {
			ran.Add(1)
			incArg0(e)
		}
		roots := []guest.TaskDesc{{Fn: 0}}
		for i := range uint64(quick) {
			roots = append(roots, guest.TaskDesc{Fn: 1, TS: 1 + i, Args: [3]uint64{base + (1+i)*8}})
		}
		r, ps, err := runProgram(t, cfg, []guest.TaskFn{slow, inc}, []string{"slow", "inc"}, roots)
		if err != nil {
			t.Fatalf("unbounded=%v: RunPhase: %v", unbounded, err)
		}
		if ps.Commits != quick+1 {
			t.Fatalf("unbounded=%v: %d commits, want %d", unbounded, ps.Commits, quick+1)
		}
		peak := r.peakCommitQ
		t.Logf("unbounded=%v: commit queue peaked at %d, capacity %d", unbounded, peak, capacity)
		if unbounded && peak <= capacity {
			t.Errorf("unbounded: commit queue peaked at %d, want more than %d", peak, capacity)
		}
		if !unbounded && peak > capacity+cfg.Cores() {
			t.Errorf("bounded: commit queue peaked at %d, want at most %d + %d", peak, capacity, cfg.Cores())
		}
	}
}

// TestAddrSetReuse: a set indexed by its hash table finds exactly its own
// addresses after a reset, whether the next set is smaller or larger.
func TestAddrSetReuse(t *testing.T) {
	var a addrSet
	for round, n := range []int{4096, 40, 3, 40, 300} {
		a.reset()
		base := uint64(round+1) << 20
		for i := range n {
			if a.find(base+uint64(i)*8) >= 0 {
				t.Fatalf("round %d: %#x found before it was added", round, base+uint64(i)*8)
			}
			a.add(base + uint64(i)*8)
		}
		for i := range n {
			if got := a.find(base + uint64(i)*8); got != i {
				t.Fatalf("round %d: find(%#x) = %d, want %d", round, base+uint64(i)*8, got, i)
			}
		}
		if got := a.find(base - 8); got != -1 {
			t.Fatalf("round %d: find of an earlier round's address = %d, want -1", round, got)
		}
	}
}

// TestLargeAttemptSets: attempts whose read and write sets outgrow the
// linear search keep read-own-writes and repeatable reads, and commit the
// same result under the DebugChecks re-execution.
func TestLargeAttemptSets(t *testing.T) {
	const base, n, tasks = uint64(1 << 12), 4 * indexAt, 20
	sumCell := base + n*8
	body := func(e guest.TaskEnv) {
		for i := uint64(0); i < n; i++ {
			a := base + i*8
			e.Store(a, e.Load(a)+e.Timestamp())
		}
		sum := uint64(0)
		for i := uint64(0); i < n; i++ {
			v := e.Load(base + i*8)
			e.Store(base+i*8, v) // a rewrite updates the buffered word
			sum += v
		}
		e.Store(sumCell, e.Load(sumCell)+sum)
	}
	cfg := testConfig(t, 4, "rt")
	cfg.DebugChecks = true
	var roots []guest.TaskDesc
	want := uint64(0)
	for ts := uint64(1); ts <= tasks; ts++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: ts})
		want += n * ts * (ts + 1) / 2
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"wide"}, roots)
	if err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	if got := r.Mem().Load(base + 8*(n-1)); got != tasks*(tasks+1)/2 {
		t.Errorf("last word = %d, want %d", got, tasks*(tasks+1)/2)
	}
	if got := r.Mem().Load(sumCell); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// TestMisalignedAccessPanics: like mem.Memory under the simulator, a task
// panics on a misaligned load or store.
func TestMisalignedAccessPanics(t *testing.T) {
	r, err := New(testConfig(t, 1, "rt"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	env := newTaskEnv(r, guest.TaskDesc{})
	for name, access := range map[string]func(){
		"load":  func() { env.Load(1<<12 + 1) },
		"store": func() { env.Store(1<<12+7, 1) },
	} {
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, "misaligned "+name) {
					t.Errorf("misaligned %s: recovered %q, want the mem panic", name, s)
				}
			}()
			access()
		}()
	}
}
