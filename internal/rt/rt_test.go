package rt

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
)

func testConfig(t *testing.T, cores int, backend string) core.Config {
	t.Helper()
	cfg := core.DefaultConfig(cores)
	cfg.Backend = backend
	return cfg
}

// runProgram builds a runtime for one function table, enqueues roots,
// and drains a single phase.
func runProgram(t *testing.T, cfg core.Config, fns []guest.TaskFn, names []string, roots []guest.TaskDesc) (*Runtime, core.PhaseStats, error) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.SetProgram(fns, names)
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
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

// TestContendedCounter hammers one word from many same-timestamp tasks:
// conflicts must resolve by abort/retry with no lost updates.
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
	r.SetProgram([]guest.TaskFn{body}, []string{"add"})
	if _, err := r.RunPhase(); err == nil || !strings.Contains(err.Error(), "RunPhase before Start") {
		t.Fatalf("RunPhase before Start: err = %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.Start(); err == nil {
		t.Fatal("second Start succeeded, want error")
	}
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
		if !r.Quiesced() {
			t.Errorf("phase %d: not quiesced after RunPhase", phase)
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
// committed.
func TestImpureTaskDetected(t *testing.T) {
	hostCounter := uint64(0)
	impure := func(e guest.TaskEnv) {
		hostCounter++ // host state: invisible to versioned memory
		e.Store(1<<12, hostCounter)
	}
	cfg := testConfig(t, 4, "rt")
	cfg.DebugChecks = true
	_, _, err := runProgram(t, cfg, []guest.TaskFn{impure}, []string{"impure"},
		[]guest.TaskDesc{{Fn: 0, TS: 0}})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("impure task: err = %v, want divergence error naming the task", err)
	}
	if err != nil && !strings.Contains(err.Error(), "impure") {
		t.Errorf("divergence error should name the task: %v", err)
	}
}

// TestPureTaskPassesDebugChecks: the divergence check must not flag a
// pure program, including one with real conflicts and retries.
func TestPureTaskPassesDebugChecks(t *testing.T) {
	const cell = uint64(1 << 12)
	body := func(e guest.TaskEnv) {
		e.Store(cell, e.Load(cell)+1)
	}
	cfg := testConfig(t, 16, "rt")
	cfg.DebugChecks = true
	var roots []guest.TaskDesc
	for i := 0; i < 200; i++ {
		roots = append(roots, guest.TaskDesc{Fn: 0, TS: 1})
	}
	r, _, err := runProgram(t, cfg, []guest.TaskFn{body}, []string{"inc"}, roots)
	if err != nil {
		t.Fatalf("pure contended program flagged: %v", err)
	}
	if got := r.Mem().Load(cell); got != 200 {
		t.Errorf("cell = %d, want 200", got)
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

// TestInvalidBackendConfig: rt.New refuses non-native and malformed
// configurations with the shared config validation error.
func TestInvalidBackendConfig(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Backend = "sim"
	if _, err := New(cfg); err == nil {
		t.Error("New with sim backend succeeded, want error")
	}
	cfg.Backend = "turbo"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("New with bogus backend: err = %v, want unknown-backend", err)
	}
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
// counts as the unhinted twin, and Phase advances per completed phase.
func TestHintedEnqueue(t *testing.T) {
	const cell = uint64(1 << 12)
	const fanout = 50
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
		if got := r.Phase(); got != 1 {
			t.Errorf("%s: Phase() = %d after one phase, want 1", backend, got)
		}
	}
}

// TestFailedPhaseKeepsCommits: a phase that fails still folds its
// committed prefix into guest memory, which Mem promises holds exactly
// the committed state between phases.
func TestFailedPhaseKeepsCommits(t *testing.T) {
	const cell = uint64(1 << 12)
	set := func(e guest.TaskEnv) { e.Store(cell, 7) }
	runaway := func(e guest.TaskEnv) {
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
	if c := r.Snapshot().Commits; c != 1 || !r.Quiesced() {
		t.Fatalf("commits = %d, quiesced = %v; want 1 commit, quiesced", c, r.Quiesced())
	}
	if got := r.Mem().Load(cell); got != 7 {
		t.Errorf("committed word = %d after the failed phase, want 7", got)
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

// startedRuntime returns a started rt runtime whose program is fn, and a
// setup allocation of words words.
func startedRuntime(tb testing.TB, workers int, fn guest.TaskFn, words uint64) (*Runtime, uint64) {
	cfg := core.DefaultConfig(workers)
	cfg.Backend = "rt"
	r, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	r.SetProgram([]guest.TaskFn{fn}, []string{"fn"})
	if err := r.Start(); err != nil {
		tb.Fatalf("Start: %v", err)
	}
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
// records are recycled. A flood of roots allocates one record per root at
// setup; chains of children reuse the records of committed tasks.
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
		{"flood", 10000, 2, func(w int) *Runtime { return independentRuntime(t, w, 10000) }},
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

// TestCommitQueueBound: while the earliest task is slow, the other
// workers run ahead until the commit queue holds CommitQPerCore x Cores
// finished attempts, and then wait (§4.7). Attempts already running when
// the queue fills still join it, at most one per worker. UnboundedQueues
// lifts the bound.
func TestCommitQueueBound(t *testing.T) {
	const array, arrayWords = uint64(1 << 24), uint64(1 << 17)
	const quick, workers = 1024, 4
	// Give every worker a thread, so the quick tasks run while the slow
	// one does even on a one-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0))))
	slow := func(e guest.TaskEnv) {
		sum := uint64(0)
		for i := range arrayWords {
			sum += e.Load(array + i*8)
		}
		e.Store(array, sum)
	}
	for _, unbounded := range []bool{false, true} {
		cfg := testConfig(t, workers, "rt")
		cfg.UnboundedQueues = unbounded
		roots := []guest.TaskDesc{{Fn: 0}}
		for i := range uint64(quick) {
			roots = append(roots, guest.TaskDesc{Fn: 1, TS: 1 + i, Args: [3]uint64{array + (arrayWords+i)*8}})
		}
		r, ps, err := runProgram(t, cfg, []guest.TaskFn{slow, incArg0}, []string{"slow", "inc"}, roots)
		if err != nil {
			t.Fatalf("unbounded=%v: RunPhase: %v", unbounded, err)
		}
		if ps.Commits != quick+1 {
			t.Fatalf("unbounded=%v: %d commits, want %d", unbounded, ps.Commits, quick+1)
		}
		peak, capacity := r.sched.peakCommitQ, cfg.CommitQPerCore*cfg.Cores()
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
