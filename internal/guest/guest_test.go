package guest

import (
	"slices"
	"testing"
)

// drive runs a coroutine to completion, answering ops with the given
// function, and returns the ops observed.
func drive(co *Coroutine, answer func(Op) Result) []Op {
	var ops []Op
	r := Result{}
	for {
		op := co.Resume(r)
		ops = append(ops, op)
		if op.Kind == OpDone || op.Kind == OpAborted {
			return ops
		}
		r = answer(op)
	}
}

func TestTaskProtocol(t *testing.T) {
	desc := TaskDesc{Fn: 3, TS: 42, Args: [3]uint64{7, 8, 9}}
	co := StartTask(func(e TaskEnv) {
		if e.Timestamp() != 42 || e.Arg(0) != 7 || e.Arg(2) != 9 {
			t.Error("descriptor not visible to task")
		}
		v := e.Load(0x100)
		e.Store(0x108, v+1)
		e.Work(5)
		e.Enqueue(1, 50, 11)
	}, desc)

	ops := drive(co, func(op Op) Result {
		if op.Kind == OpLoad {
			return Result{Val: 99}
		}
		return Result{}
	})

	want := []OpKind{OpLoad, OpStore, OpWork, OpEnqueue, OpDone}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i, k := range want {
		if ops[i].Kind != k {
			t.Fatalf("op %d = %v, want %v", i, ops[i].Kind, k)
		}
	}
	if ops[1].Addr != 0x108 || ops[1].Val != 100 {
		t.Fatalf("store op = %+v (load value not delivered)", ops[1])
	}
	if ops[3].Task.TS != 50 || ops[3].Task.Args[0] != 11 || ops[3].Task.Fn != 1 {
		t.Fatalf("enqueue op = %+v", ops[3].Task)
	}
	if !co.Done() {
		t.Fatal("coroutine not done")
	}
}

func TestAbortUnwinds(t *testing.T) {
	cleanedUp := false
	co := StartTask(func(e TaskEnv) {
		defer func() { cleanedUp = true }() // defers must still run
		e.Load(0x100)
		e.Load(0x200) // aborted here
		t.Error("guest ran past abort")
	}, TaskDesc{})

	n := 0
	ops := drive(co, func(op Op) Result {
		n++
		if n == 2 {
			return Result{Abort: true}
		}
		return Result{}
	})
	last := ops[len(ops)-1]
	if last.Kind != OpAborted {
		t.Fatalf("last op = %v, want OpAborted", last.Kind)
	}
	if !cleanedUp {
		t.Fatal("defer did not run during abort unwind")
	}
}

func TestZeroWorkElided(t *testing.T) {
	co := StartTask(func(e TaskEnv) {
		e.Work(0) // must not produce an op
		e.Work(3)
	}, TaskDesc{})
	ops := drive(co, func(Op) Result { return Result{} })
	if len(ops) != 2 || ops[0].Kind != OpWork || ops[0].N != 3 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestChildTimestampMonotonic(t *testing.T) {
	co := StartTask(func(e TaskEnv) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on earlier child timestamp")
			}
			// Unwind cleanly: panic again with abortSignal to satisfy
			// the wrapper? No - re-panic with a guest abort is wrong.
			// Just return; the recover swallowed the panic.
		}()
		e.Enqueue(0, 5) // parent TS is 10: must panic
	}, TaskDesc{TS: 10})
	drive(co, func(Op) Result { return Result{} })
}

func TestTooManyArgsPanics(t *testing.T) {
	co := StartTask(func(e TaskEnv) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on 4 argument words")
			}
		}()
		e.Enqueue(0, 10, 1, 2, 3, 4)
	}, TaskDesc{TS: 10})
	drive(co, func(Op) Result { return Result{} })
}

// childLog is a ChildSink that records the children an Attempt accepts.
type childLog []TaskDesc

func (l *childLog) AddChild(d TaskDesc) { *l = append(*l, d) }

// TestAttemptChildren pins the enqueue rules every engine's TaskEnv
// embeds: plain enqueues inherit the parent's path, forks take the next
// per-attempt index below it, hints tag the descriptor, the ninth child
// of an attempt panics, and Begin restarts the fork index and the count.
func TestAttemptChildren(t *testing.T) {
	parent := TaskDesc{TS: 7}
	parent.Path = parent.Path.Child(3)
	var log childLog
	var a Attempt
	a.Begin(parent, &log)
	a.Enqueue(1, 9, 5)
	a.EnqueueHinted(1, 8, 42, [3]uint64{6})
	a.Fork(2, 1, 2)
	a.EnqueueSub(2, 43, [3]uint64{})
	a.EnqueueSub(2, NoHint, [3]uint64{4})
	want := []TaskDesc{
		{Fn: 1, TS: 9, Path: parent.Path, Args: [3]uint64{5}},
		TaskDesc{Fn: 1, TS: 8, Path: parent.Path, Args: [3]uint64{6}}.WithHint(42),
		{Fn: 2, TS: 7, Path: parent.Path.Child(0), Args: [3]uint64{1, 2}},
		TaskDesc{Fn: 2, TS: 7, Path: parent.Path.Child(1)}.WithHint(43),
		{Fn: 2, TS: 7, Path: parent.Path.Child(2), Args: [3]uint64{4}},
	}
	if !slices.Equal(log, want) {
		t.Fatalf("children = %+v, want %+v", log, want)
	}
	for len(log) < MaxChildren {
		a.Enqueue(1, 7)
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		a.Fork(2)
		return nil
	}()
	if got != "guest: task exceeded the 8-child hardware limit; enqueue a spawner task instead (§4.1)" {
		t.Fatalf("ninth child: recovered %v", got)
	}
	log = log[:0]
	a.Begin(parent, &log)
	for range MaxChildren {
		a.Fork(2)
	}
	if log[0] != (TaskDesc{Fn: 2, TS: 7, Path: parent.Path.Child(0)}) {
		t.Fatalf("first fork after Begin = %+v", log[0])
	}
}

func TestThreadProtocol(t *testing.T) {
	co := StartThread(func(e ThreadEnv) {
		if e.ID() != 2 || e.Threads() != 8 {
			t.Error("thread identity wrong")
		}
		if !e.CAS(0x10, 0, 1) {
			t.Error("CAS result not delivered")
		}
		if e.FetchAdd(0x18, 5) != 40 {
			t.Error("FetchAdd result not delivered")
		}
	}, 2, 8)
	ops := drive(co, func(op Op) Result {
		switch op.Kind {
		case OpCAS:
			return Result{OK: true}
		case OpFetchAdd:
			return Result{Val: 40}
		}
		return Result{}
	})
	if ops[0].Kind != OpCAS || ops[0].Old != 0 || ops[0].Val != 1 {
		t.Fatalf("CAS op = %+v", ops[0])
	}
	if ops[1].Kind != OpFetchAdd || ops[1].Val != 5 {
		t.Fatalf("FetchAdd op = %+v", ops[1])
	}
}

func TestResumeAfterDonePanics(t *testing.T) {
	co := StartTask(func(e TaskEnv) {}, TaskDesc{})
	drive(co, func(Op) Result { return Result{} })
	defer func() {
		if recover() == nil {
			t.Fatal("Resume after Done did not panic")
		}
	}()
	co.Resume(Result{})
}

func TestManyCoroutinesInterleaved(t *testing.T) {
	// Round-robin 100 guests, one op at a time: exercises the rendezvous
	// protocol under interleaving.
	const n = 100
	cos := make([]*Coroutine, n)
	sums := make([]uint64, n)
	for i := range cos {
		i := i
		cos[i] = StartTask(func(e TaskEnv) {
			var s uint64
			for j := 0; j < 10; j++ {
				s += e.Load(uint64(j * 8))
			}
			sums[i] = s
		}, TaskDesc{})
	}
	pending := make([]Result, n)
	live := n
	started := make([]bool, n)
	for live > 0 {
		for i, co := range cos {
			if co == nil {
				continue
			}
			var op Op
			if !started[i] {
				op = co.Resume(Result{})
				started[i] = true
			} else {
				op = co.Resume(pending[i])
			}
			if op.Kind == OpDone {
				cos[i] = nil
				live--
				continue
			}
			pending[i] = Result{Val: op.Addr / 8}
		}
	}
	for i, s := range sums {
		if s != 45 {
			t.Fatalf("guest %d sum = %d, want 45", i, s)
		}
	}
}
