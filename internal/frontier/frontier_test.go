package frontier

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/tsdom"
)

// fakeEnv is a minimal in-memory guest.TaskEnv that records enqueues, so
// frontier semantics are testable without a simulated machine. (The
// cross-backend and golden-fingerprint suites cover the frontier under
// the real engines via the ported apps.)
type fakeEnv struct {
	mem   map[uint64]uint64
	ts    uint64
	args  [3]uint64
	work  uint64
	next  uint64
	forks uint64
	enq   []guest.TaskDesc
}

func newFakeEnv() *fakeEnv { return &fakeEnv{mem: map[uint64]uint64{}, next: 0x1000} }

func (f *fakeEnv) Load(a uint64) uint64  { return f.mem[a] }
func (f *fakeEnv) Store(a, v uint64)     { f.mem[a] = v }
func (f *fakeEnv) Work(n uint64)         { f.work += n }
func (f *fakeEnv) Alloc(n uint64) uint64 { a := f.next; f.next += (n + 63) &^ 63; return a }
func (f *fakeEnv) Free(a, n uint64)      {}
func (f *fakeEnv) Timestamp() uint64     { return f.ts }
func (f *fakeEnv) Arg(i int) uint64      { return f.args[i] }
func (f *fakeEnv) Enqueue(fn guest.FnID, ts uint64, args ...uint64) {
	var a [3]uint64
	copy(a[:], args)
	f.EnqueueArgs(fn, ts, a)
}
func (f *fakeEnv) EnqueueArgs(fn guest.FnID, ts uint64, args [3]uint64) {
	f.enq = append(f.enq, guest.TaskDesc{Fn: fn, TS: ts, Args: args})
}
func (f *fakeEnv) EnqueueHinted(fn guest.FnID, ts uint64, hint uint64, args [3]uint64) {
	f.enq = append(f.enq, guest.TaskDesc{Fn: fn, TS: ts, Args: args}.WithHint(hint))
}
func (f *fakeEnv) Fork(fn guest.FnID, args ...uint64) {
	var a [3]uint64
	copy(a[:], args)
	f.EnqueueSub(fn, guest.NoHint, a)
}
func (f *fakeEnv) EnqueueSub(fn guest.FnID, _ uint64, args [3]uint64) {
	f.enq = append(f.enq, guest.TaskDesc{Fn: fn, TS: f.ts, Path: tsdom.FromLevels(f.forks), Args: args})
	f.forks++
}

func TestStateLineLayout(t *testing.T) {
	e := newFakeEnv()
	f := New(e.Alloc, 4, 1)
	for key := uint64(0); key < 4; key++ {
		if f.ValueAddr(key)%64 != 0 {
			t.Errorf("key %d value not line-aligned: %#x", key, f.ValueAddr(key))
		}
		if f.AuxAddr(key) != f.ValueAddr(key)+8 || f.BestAddr(key) != f.ValueAddr(key)+16 {
			t.Errorf("key %d words not packed on one line", key)
		}
	}
	if f.ValueAddr(1)-f.ValueAddr(0) != 64 {
		t.Error("keys must occupy distinct 64-byte lines")
	}
}

func TestInitAndAccessors(t *testing.T) {
	e := newFakeEnv()
	f := New(e.Alloc, 2, 1)
	f.Init(e.Store, 1, Unsettled, 7, 7)
	if f.Value(e, 1) != Unsettled || f.Aux(e, 1) != 7 || e.Load(f.BestAddr(1)) != 7 {
		t.Fatal("Init did not write value/aux/best")
	}
	f.SetAux(e, 1, 6)
	if f.Aux(e, 1) != 6 {
		t.Fatal("SetAux lost the write")
	}
}

func TestPushPruningAndClamp(t *testing.T) {
	e := newFakeEnv()
	f := New(e.Alloc, 2, 1)
	f.Init(e.Store, 0, Unsettled, 0, NeverPushed)
	f.Fn = 3

	// First push: enqueues and records best.
	f.Push(e, 0, 9)
	if len(e.enq) != 1 {
		t.Fatalf("first push should enqueue, got %d", len(e.enq))
	}
	d := e.enq[0]
	if d.Fn != 3 || d.TS != 9 || d.Args[0] != 0 || d.Args[1] != 9 {
		t.Fatalf("push descriptor wrong: %+v", d)
	}
	if key, ok := d.HintKey(); !ok || key != 0<<1 {
		t.Fatalf("push hint wrong: %+v", d)
	}

	// Worse or equal priority: pruned.
	f.Push(e, 0, 12)
	f.Push(e, 0, 9)
	if len(e.enq) != 1 {
		t.Fatal("stale pushes must be pruned against best-pending")
	}

	// Better priority: re-enqueues and tightens best.
	f.Push(e, 0, 5)
	if len(e.enq) != 2 || e.enq[1].TS != 5 {
		t.Fatalf("improving push should enqueue at 5: %+v", e.enq)
	}

	// Priorities below the pusher's own timestamp clamp up to it.
	e.ts = 4
	f.Push(e, 0, 2)
	if len(e.enq) != 3 || e.enq[2].TS != 4 {
		t.Fatalf("push below now must clamp to now: %+v", e.enq)
	}

	// ClearPending reopens the key at any priority.
	f.ClearPending(e, 0)
	e.ts = 0
	f.Push(e, 0, 100)
	if len(e.enq) != 4 || e.enq[3].TS != 100 {
		t.Fatal("push after ClearPending must enqueue")
	}
}

func TestPushMin(t *testing.T) {
	e := newFakeEnv()
	f := New(e.Alloc, 1, 1)
	f.Init(e.Store, 0, Unsettled, 0, NeverPushed)
	f.Fn = 3

	// Improvement: value tightens and the handler is pushed.
	f.PushMin(e, 0, 9)
	if f.Value(e, 0) != 9 || len(e.enq) != 1 || e.enq[0].TS != 9 {
		t.Fatalf("improving PushMin must store 9 and enqueue: value=%d enq=%+v", f.Value(e, 0), e.enq)
	}
	// Non-improvement: neither the value nor the queue moves.
	f.PushMin(e, 0, 9)
	f.PushMin(e, 0, 20)
	if f.Value(e, 0) != 9 || len(e.enq) != 1 {
		t.Fatal("non-improving PushMin must be a no-op")
	}
	// A further improvement re-pushes even though an entry is pending.
	f.PushMin(e, 0, 4)
	if f.Value(e, 0) != 4 || len(e.enq) != 2 || e.enq[1].TS != 4 {
		t.Fatalf("better PushMin must re-push: value=%d enq=%+v", f.Value(e, 0), e.enq)
	}
}

func TestDeltaBucketing(t *testing.T) {
	e := newFakeEnv()
	f := New(e.Alloc, 1, 64)
	f.Init(e.Store, 0, Unsettled, 0, NeverPushed)
	f.Push(e, 0, 130)
	if len(e.enq) != 1 || e.enq[0].TS != 128 {
		t.Fatalf("prio 130 at delta 64 should land in bucket 128: %+v", e.enq)
	}
	// Same bucket: pruned even though the raw priority differs.
	f.Push(e, 0, 190)
	if len(e.enq) != 1 {
		t.Fatal("same-bucket push must be pruned")
	}
	f.Seed(e, 0, 65)
	if len(e.enq) != 2 || e.enq[1].TS != 64 {
		t.Fatalf("seed must bucket too: %+v", e.enq)
	}
}

func TestTrySettle(t *testing.T) {
	e := newFakeEnv()
	f := New(e.Alloc, 1, 1)
	f.Init(e.Store, 0, Unsettled, 0, 0)
	e.ts, e.args = 6, [3]uint64{0}
	if key, ok := f.TrySettle(e); !ok || key != 0 {
		t.Fatal("first entry must settle")
	}
	if f.Value(e, 0) != 6 {
		t.Fatalf("settled value = %d, want the settling timestamp 6", f.Value(e, 0))
	}
	e.ts = 9
	if _, ok := f.TrySettle(e); ok {
		t.Fatal("stale entry must not settle again")
	}
	if f.Value(e, 0) != 6 {
		t.Fatal("stale entry must not overwrite the settled value")
	}
}

func TestSpawnRange(t *testing.T) {
	e := newFakeEnv()
	var leaves []uint64
	leaf := func(_ guest.TaskEnv, i uint64) { leaves = append(leaves, i) }

	// Small range: leaves enqueue directly.
	e.args = [3]uint64{3, 7}
	SpawnRange(e, 9, leaf)
	if len(leaves) != 4 || leaves[0] != 3 || leaves[3] != 6 {
		t.Fatalf("leaves = %v, want [3 4 5 6]", leaves)
	}
	if len(e.enq) != 0 {
		t.Fatal("small range should not spawn sub-spawners")
	}

	// Large range: splits into <= guest.MaxChildren sub-spawners covering
	// [lo, hi).
	e2 := newFakeEnv()
	e2.ts, e2.args = 5, [3]uint64{0, 100}
	SpawnRange(e2, 9, leaf)
	if len(e2.enq) == 0 || len(e2.enq) > guest.MaxChildren {
		t.Fatalf("split into %d sub-spawners, want 1..%d", len(e2.enq), guest.MaxChildren)
	}
	next := uint64(0)
	for _, d := range e2.enq {
		if d.Fn != 9 || d.TS != 5 {
			t.Fatalf("sub-spawner descriptor wrong: %+v", d)
		}
		if d.Args[0] != next {
			t.Fatalf("coverage gap: sub-range starts at %d, want %d", d.Args[0], next)
		}
		next = d.Args[1]
	}
	if next != 100 {
		t.Fatalf("sub-ranges end at %d, want 100", next)
	}
}

func TestStaticOrderSpawnLeaf(t *testing.T) {
	e := newFakeEnv()
	ordBase := e.Alloc(8 * 8)
	e.Store(ordBase+2*8, 42) // rank 2 -> key 42
	so := StaticOrder{Fn: 4}
	so.Ord.Base = ordBase
	so.SpawnLeaf(e, 2)
	if len(e.enq) != 1 {
		t.Fatal("leaf must enqueue the handler")
	}
	d := e.enq[0]
	key, ok := d.HintKey()
	if d.Fn != 4 || d.TS != 2 || d.Args[0] != 42 || !ok || key != 42 {
		t.Fatalf("static-order descriptor wrong: %+v", d)
	}
}
