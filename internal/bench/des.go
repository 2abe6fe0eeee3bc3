package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/circuit"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
	"github.com/swarm-sim/swarm/internal/swrt"
)

// DES is a discrete-event simulator for digital circuits (§2.2): each task
// is a signal toggle at a gate, timestamped with simulated time; toggles
// that change a gate's output enqueue its fanout at t+delay. The circuit is
// a chained carry-select adder array (csaArray), driven by rounds of random
// input vectors. The software-parallel baseline is a Chandy-Misra-Bryant
// style conservative simulator that exploits gate delays as lookahead
// (§6.2).
type DES struct {
	runner
	c    *circuit.Circuit
	stim *circuit.Stimulus
	ref  []uint64 // settled values after the final round
}

func init() {
	Register(AppMeta{
		Name:    "des",
		Order:   4,
		Summary: "discrete-event simulation of a carry-select adder array",
	}, func(s Scale) *DES {
		switch s {
		case ScaleTiny:
			return NewDES(3, 8, 2, 6)
		case ScaleSmall:
			return NewDES(6, 8, 4, 6)
		default:
			return NewDES(16, 8, 6, 6)
		}
	})
}

// NewDES builds the benchmark: nAdders carry-select adders of the given
// width, driven for rounds input vectors.
func NewDES(nAdders, width, rounds int, seed int64) *DES {
	const gateDelay = 4
	c := circuit.CSAArray(nAdders, width, gateDelay)
	// Period: long enough that most activity settles between rounds but
	// short enough that rounds overlap occasionally (cross-round events).
	period := uint64(width) * 3 * gateDelay
	stim := circuit.NewStimulus(c, rounds, period, seed)
	b := &DES{c: c, stim: stim, ref: c.TopoEval(stim.Vectors[rounds-1])}
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *DES) Name() string { return "des" }

// guestDES is the netlist laid out in guest memory, shared by all flavors.
type guestDES struct {
	nGates, nIn uint64
	typ         swrt.Array // gate type
	delay       swrt.Array
	faninN      swrt.Array // fanin count
	fanin       swrt.Array // nGates x MaxFanin
	foOff       swrt.Array // fanout CSR offsets (nGates+1)
	foDst       swrt.Array // fanout targets
	val         swrt.Array // current output value per gate
	inputs      swrt.Array // input gate ids
	stim        swrt.Array // rounds x nIn values
}

func (b *DES) pack(alloc func(uint64) uint64, store func(addr, val uint64)) guestDES {
	n := uint64(len(b.c.Gates))
	nIn := uint64(len(b.c.Inputs))
	var nFo uint64
	for _, f := range b.c.Fanout {
		nFo += uint64(len(f))
	}
	g := guestDES{
		nGates: n, nIn: nIn,
		typ:    swrt.NewArray(alloc, n),
		delay:  swrt.NewArray(alloc, n),
		faninN: swrt.NewArray(alloc, n),
		fanin:  swrt.NewArray(alloc, n*circuit.MaxFanin),
		foOff:  swrt.NewArray(alloc, n+1),
		foDst:  swrt.NewArray(alloc, nFo),
		val:    swrt.NewArray(alloc, n),
		inputs: swrt.NewArray(alloc, nIn),
		stim:   swrt.NewArray(alloc, uint64(b.stim.Rounds)*nIn),
	}
	off := uint64(0)
	for i, gate := range b.c.Gates {
		gi := uint64(i)
		store(g.typ.Addr(gi), uint64(gate.Type))
		store(g.delay.Addr(gi), uint64(gate.Delay))
		store(g.faninN.Addr(gi), uint64(len(gate.In)))
		for j, f := range gate.In {
			store(g.fanin.Addr(gi*circuit.MaxFanin+uint64(j)), uint64(f))
		}
		store(g.foOff.Addr(gi), off)
		for _, fo := range b.c.Fanout[i] {
			store(g.foDst.Addr(off), uint64(fo))
			off++
		}
	}
	store(g.foOff.Addr(n), off)
	for i, in := range b.c.Inputs {
		store(g.inputs.Addr(uint64(i)), uint64(in))
	}
	for r := 0; r < b.stim.Rounds; r++ {
		for i := uint64(0); i < nIn; i++ {
			store(g.stim.Addr(uint64(r)*nIn+i), b.stim.Vectors[r][i])
		}
	}
	return g
}

// verify checks every gate settled to the reference fixpoint of the final
// input vector.
func (b *DES) verify(load func(uint64) uint64, g guestDES) error {
	for i := uint64(0); i < g.nGates; i++ {
		if got := load(g.val.Addr(i)); got != b.ref[i] {
			return fmt.Errorf("des: gate %d settled to %d, want %d", i, got, b.ref[i])
		}
	}
	return nil
}

// evalCost models the gate-model computation beyond raw loads/stores
// (timing-wheel maintenance, multi-valued logic, observability hooks in
// real simulators); des tasks are a few hundred instructions in the paper
// (Table 1: 296).
const evalCost = 270

// evalGateGuest evaluates gate gi from guest state and returns the new
// output value.
func evalGateGuest(e guest.Env, g guestDES, gi uint64) uint64 {
	typ := circuit.GateType(e.Load(g.typ.Addr(gi)))
	n := e.Load(g.faninN.Addr(gi))
	var in [circuit.MaxFanin]uint64
	for j := uint64(0); j < n; j++ {
		f := e.Load(g.fanin.Addr(gi*circuit.MaxFanin + j))
		in[j] = e.Load(g.val.Addr(f))
	}
	e.Work(evalCost)
	return circuit.EvalGate(typ, in[:n]...)
}

// SwarmApp implements Benchmark.
//
// Task functions: "spawn" fans a round's inputs out, "input" sets one
// input, "eval" evaluates a gate, and "fanout" chains consumer enqueues
// for gates whose fanout exceeds the 8-child limit (e.g. the carry-select
// mux selects).
func (b *DES) SwarmApp() SwarmApp {
	var g guestDES
	period := b.stim.Period
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		g = b.pack(ab.Alloc, ab.Store)
		var spawn, input, eval, fan guest.FnID

		// enqueueFanout schedules evaluations of gate gi's consumers in
		// [lo, hi), chaining through the fanout spawner when there are more
		// than 7.
		enqueueFanout := func(e guest.TaskEnv, lo, hi uint64) {
			n := hi - lo
			direct := n
			if direct > 7 {
				direct = 7
			}
			for i := lo; i < lo+direct; i++ {
				c := e.Load(g.foDst.Addr(i))
				d := e.Load(g.delay.Addr(c))
				// Spatial hint: the consumer gate — every toggle of one
				// gate evaluates on its home tile under hint-based mappers.
				e.EnqueueHinted(eval, e.Timestamp()+d, c, [3]uint64{c})
			}
			if lo+direct < hi {
				e.EnqueueArgs(fan, e.Timestamp(), [3]uint64{lo + direct, hi})
			}
		}

		spawn = ab.Fn("spawn", func(e guest.TaskEnv) {
			spawnRangeTask(e, spawn, func(e guest.TaskEnv, i uint64) {
				// Spatial hint: the input id, stable across rounds.
				e.EnqueueHinted(input, e.Timestamp(), i, [3]uint64{i})
			})
		})
		input = ab.Fn("input", func(e guest.TaskEnv) {
			i := e.Arg(0)
			round := e.Timestamp() / period
			gate := e.Load(g.inputs.Addr(i))
			v := e.Load(g.stim.Addr(round*g.nIn + i))
			e.Work(3)
			if e.Load(g.val.Addr(gate)) == v {
				return
			}
			e.Store(g.val.Addr(gate), v)
			lo := e.Load(g.foOff.Addr(gate))
			hi := e.Load(g.foOff.Addr(gate + 1))
			enqueueFanout(e, lo, hi)
		})
		eval = ab.Fn("eval", func(e guest.TaskEnv) {
			gi := e.Arg(0)
			nv := evalGateGuest(e, g, gi)
			if e.Load(g.val.Addr(gi)) == nv {
				return
			}
			e.Store(g.val.Addr(gi), nv)
			lo := e.Load(g.foOff.Addr(gi))
			hi := e.Load(g.foOff.Addr(gi + 1))
			enqueueFanout(e, lo, hi)
		})
		fan = ab.Fn("fanout", func(e guest.TaskEnv) {
			enqueueFanout(e, e.Arg(0), e.Arg(1))
		})

		roots := make([]guest.TaskDesc, b.stim.Rounds)
		for r := range roots {
			roots[r] = guest.TaskDesc{Fn: spawn, TS: uint64(r) * period, Args: [3]uint64{0, g.nIn}}
		}
		return roots
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, g) }
	return app
}

// Event encoding in heaps: value = gate id, or (inputFlag | input index)
// for stimulus application.
const inputFlag = 1 << 40

func (b *DES) serialBody(e guest.Env, g guestDES, pq swrt.Heap, period, rounds uint64, iterMark func()) {
	nextRound := uint64(0)
	for {
		// Inject the next stimulus round once nothing earlier is pending.
		for nextRound < rounds {
			k, _, ok := pq.PeekMin(e)
			e.Work(2)
			if ok && k < nextRound*period {
				break
			}
			for i := uint64(0); i < g.nIn; i++ {
				pq.Push(e, nextRound*period, inputFlag|i)
			}
			nextRound++
		}
		iterMark()
		t, v, ok := pq.PopMin(e)
		if !ok {
			return
		}
		var gate uint64
		var nv uint64
		if v&inputFlag != 0 {
			i := v &^ inputFlag
			gate = e.Load(g.inputs.Addr(i))
			nv = e.Load(g.stim.Addr((t/period)*g.nIn + i))
			e.Work(3)
		} else {
			gate = v
			nv = evalGateGuest(e, g, gate)
		}
		if e.Load(g.val.Addr(gate)) == nv {
			continue
		}
		e.Store(g.val.Addr(gate), nv)
		lo := e.Load(g.foOff.Addr(gate))
		hi := e.Load(g.foOff.Addr(gate + 1))
		for i := lo; i < hi; i++ {
			c := e.Load(g.foDst.Addr(i))
			d := e.Load(g.delay.Addr(c))
			pq.Push(e, t+d, c)
		}
	}
}

// SerialApp implements Benchmark: the classic sequential event-driven
// simulator — a binary heap of (time, gate) events processed in time order.
func (b *DES) SerialApp() SerialApp {
	var g guestDES
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			g = b.pack(alloc, store)
			heapCap := uint64(b.stim.Rounds)*g.nIn + 64*g.nGates
			pq := swrt.NewHeap(alloc, heapCap)
			return func(e guest.Env, mark func()) {
				b.serialBody(e, g, pq, b.stim.Period, uint64(b.stim.Rounds), mark)
			}
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, g) },
	}
}

// RunParallel implements Parallel: a conservative (Chandy-Misra-Bryant
// family) parallel simulator. Gates are partitioned across threads (whole
// adders stay together); each thread keeps a local event queue and an
// inbox for cross-partition events; rounds process every event inside the
// safe window [gmin, gmin+lookahead), where the lookahead is the minimum
// gate delay — events spawned inside the window land beyond it (§6.2: CMB
// exploits simulated latencies to execute events out of order safely).
func (b *DES) RunParallel(nCores int) (uint64, error) {
	p := uint64(nCores)
	m := smp.NewMachine(smp.DefaultConfig(nCores))
	g := b.pack(m.SetupAlloc, m.Mem().Store)
	period := b.stim.Period
	rounds := uint64(b.stim.Rounds)
	lookahead := uint64(4) // = gate delay (min cross-gate latency)
	const inf = ^uint64(0)

	// Static partition: contiguous gate ranges (adders are contiguous).
	owner := make([]int, g.nGates)
	per := (g.nGates + p - 1) / p
	for i := uint64(0); i < g.nGates; i++ {
		owner[i] = int(i / per)
	}

	heaps := make([]swrt.Heap, p)
	inboxes := make([]swrt.Array, p) // flattened (ts, val) pairs
	inboxCount := make([]uint64, p)  // guest addresses of counters
	inboxLock := make([]swrt.SpinLock, p)
	heapCap := uint64(b.stim.Rounds)*g.nIn + 64*g.nGates/p + 1024
	const inboxCap = 8192
	for i := uint64(0); i < p; i++ {
		heaps[i] = swrt.NewHeap(m.SetupAlloc, heapCap)
		inboxes[i] = swrt.NewArray(m.SetupAlloc, 2*inboxCap)
		inboxCount[i] = m.SetupAlloc(64)
		inboxLock[i] = swrt.SpinLock{Addr: m.SetupAlloc(64)}
	}
	mins := swrt.NewArray(m.SetupAlloc, p)
	gminAddr := m.SetupAlloc(64)
	bar := swrt.NewBarrier(m.SetupAlloc, p)

	st, err := m.Run(func(e guest.ThreadEnv) {
		var sense uint64
		id := uint64(e.ID())
		pq := heaps[id]
		nextRound := uint64(0)

		post := func(ts, val, gate uint64) {
			o := uint64(owner[gate])
			if o == id {
				pq.Push(e, ts, val)
				return
			}
			inboxLock[o].Acquire(e)
			c := e.Load(inboxCount[o])
			if c >= inboxCap {
				panic("des: inbox overflow")
			}
			e.Store(inboxes[o].Addr(2*c), ts)
			e.Store(inboxes[o].Addr(2*c+1), val)
			e.Store(inboxCount[o], c+1)
			inboxLock[o].Release(e)
		}

		for {
			// Report local minimum (pending stimulus counts).
			lmin := uint64(inf)
			if k, _, ok := pq.PeekMin(e); ok {
				lmin = k
			}
			if nextRound < rounds && nextRound*period < lmin {
				lmin = nextRound * period
			}
			mins.Set(e, id, lmin)
			bar.Wait(e, &sense)
			if id == 0 {
				gm := uint64(inf)
				for i := uint64(0); i < p; i++ {
					if v := mins.Get(e, i); v < gm {
						gm = v
					}
					e.Work(1)
				}
				e.Store(gminAddr, gm)
			}
			bar.Wait(e, &sense)
			gmin := e.Load(gminAddr)
			if gmin == inf {
				return
			}
			windowEnd := gmin + lookahead

			// Inject stimulus that falls inside the window (each thread
			// owns its partition's input gates).
			for nextRound < rounds && nextRound*period < windowEnd {
				t := nextRound * period
				for i := uint64(0); i < g.nIn; i++ {
					gate := e.Load(g.inputs.Addr(i))
					if owner[gate] == int(id) {
						pq.Push(e, t, inputFlag|i)
					}
				}
				nextRound++
			}

			// Process the safe window.
			for {
				k, _, ok := pq.PeekMin(e)
				e.Work(1)
				if !ok || k >= windowEnd {
					break
				}
				t, v, _ := pq.PopMin(e)
				var gate, nv uint64
				if v&inputFlag != 0 {
					i := v &^ inputFlag
					gate = e.Load(g.inputs.Addr(i))
					nv = e.Load(g.stim.Addr((t/period)*g.nIn + i))
					e.Work(3)
				} else {
					gate = v
					nv = evalGateGuest(e, g, gate)
				}
				if e.Load(g.val.Addr(gate)) == nv {
					continue
				}
				e.Store(g.val.Addr(gate), nv)
				lo := e.Load(g.foOff.Addr(gate))
				hi := e.Load(g.foOff.Addr(gate + 1))
				for i := lo; i < hi; i++ {
					c := e.Load(g.foDst.Addr(i))
					d := e.Load(g.delay.Addr(c))
					post(t+d, c, c)
				}
			}
			bar.Wait(e, &sense)

			// Drain the inbox into the local queue.
			c := e.Load(inboxCount[id])
			for i := uint64(0); i < c; i++ {
				pq.Push(e, e.Load(inboxes[id].Addr(2*i)), e.Load(inboxes[id].Addr(2*i+1)))
			}
			e.Store(inboxCount[id], 0)
			bar.Wait(e, &sense)
		}
	})
	if err != nil {
		return 0, err
	}
	return st.Cycles, b.verify(m.Mem().Load, g)
}
