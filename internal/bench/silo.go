package bench

import (
	"sort"
	"sync"

	"github.com/swarm-sim/swarm/internal/frontier"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/swrt"
	"github.com/swarm-sim/swarm/internal/tpcc"
)

// Silo is the in-memory OLTP benchmark: TPC-C transactions on the tpcc
// substrate. The serial version runs transactions back-to-back with no
// synchronization; the software-parallel version is the Silo OCC protocol
// (per-tuple version locks, read validation, buffered writes); the Swarm
// version decomposes each transaction into tiny ordered tasks that each
// write at most one tuple, with disjoint timestamp ranges per transaction
// preserving atomicity (§5) — exposing parallelism within and across
// transactions even with a single warehouse (Fig 13).
type Silo struct {
	runner
	sc   tpcc.Scale
	txns []tpcc.Txn
	// reference returns the loader of the host replay of txns in order,
	// replaying them at its first call. Every run of b, on any engine and
	// from any goroutine, is checked against that one replay.
	reference func() func(uint64) uint64
}

func init() {
	Register(AppMeta{
		Name:    "silo",
		Order:   5,
		Summary: "in-memory TPC-C transactions (silo-style OCC baseline)",
		Figures: []string{"fig13"},
	}, func(s Scale) *Silo {
		switch s {
		case ScaleTiny:
			return NewSilo(2, 60, 7)
		case ScaleSmall:
			return NewSilo(4, 200, 7)
		default:
			return NewSilo(4, 800, 7)
		}
	})
}

// NewSilo builds the benchmark with the given warehouse count and
// transaction count.
func NewSilo(warehouses, txns int, seed int64) *Silo {
	sc := tpcc.DefaultScale(warehouses, txns)
	b := &Silo{sc: sc, txns: tpcc.Generate(sc, txns, seed)}
	b.reference = sync.OnceValue(func() func(uint64) uint64 {
		_, load := tpcc.Reference(b.sc, b.txns)
		return load
	})
	b.runner = runner{b}
	return b
}

// Name implements Benchmark.
func (b *Silo) Name() string { return "silo" }

// tsBits is the per-transaction timestamp range (tasks of txn i use
// timestamps [i<<tsBits, (i+1)<<tsBits)).
const tsBits = 6

// verify checks the final tables word for word against the reference.
func (b *Silo) verify(load func(uint64) uint64, l *tpcc.Layout) error {
	return l.CompareExact(load, b.reference())
}

// ---------------------------------------------------------------- Swarm --

// Argument packing for item/delivery chains (3x64-bit descriptor words).
func packOidJ(oid, j uint64) uint64       { return oid<<8 | j }
func unpackOidJ(p uint64) (oid, j uint64) { return p >> 8, p & 0xff }

func packDlv(d, oid, cid, cnt, j uint64) uint64 {
	return d | oid<<8 | cid<<24 | cnt<<40 | j<<48
}
func unpackDlv(p uint64) (d, oid, cid, cnt, j uint64) {
	return p & 0xff, p >> 8 & 0xffff, p >> 24 & 0xffff, p >> 40 & 0xff, p >> 48 & 0xff
}

// Spatial hint keys for hint-based task mappers: TPC-C tuples cluster by
// warehouse and district, so each pipeline task carries the tightest key
// its enqueuer has already loaded — the district for tuple tasks, the item
// for stock updates, the transaction id for fan-out tasks (whose first
// access is the transaction record itself). The low bits namespace the key
// kinds so distinct tables never alias to one home tile by accident.
func hintTxn(i uint64) uint64         { return i << 2 }
func hintDistrict(w, d uint64) uint64 { return (w<<8|d)<<2 | 1 }
func hintItem(item uint64) uint64     { return item<<2 | 2 }

// Task-function handles for the Swarm decomposition, in registration
// order. The table is dense (every transaction type's pipeline stages),
// so the handles are package constants rather than Build-local variables;
// siloFnNames aligns positionally for registration.
const (
	siloSpawn       guest.FnID = iota // fan out transaction roots
	siloTxnRoot                       // read parameters, enqueue the per-tuple pipeline
	siloNoDistrict                    // NewOrder: take an order id (district tuple)
	siloNoInsert                      // NewOrder: write the order row
	siloNoPush                        // NewOrder: push onto the new-order queue
	siloNoItemSpawn                   // NewOrder: fan out per-item chains
	siloNoItemRead                    // NewOrder: read the item price
	siloNoStock                       // NewOrder: update one stock tuple
	siloNoLine                        // NewOrder: write one order line
	siloPayW                          // Payment: warehouse tuple
	siloPayD                          // Payment: district tuple
	siloPayC                          // Payment: customer tuple
	siloOsCust                        // OrderStatus: customer read
	siloOsDistrict                    // OrderStatus: district read
	siloOsScan                        // OrderStatus: scan one order's lines
	siloDlvSpawn                      // Delivery: fan out districts
	siloDlvPop                        // Delivery: pop the new-order queue
	siloDlvOrder                      // Delivery: the order tuple
	siloDlvLine                       // Delivery: one order-line tuple
	siloDlvCust                       // Delivery: the customer tuple
	siloSlDistrict                    // StockLevel: district read
	siloSlScan                        // StockLevel: scan one order's stock
	siloNumFns
)

var siloFnNames = [siloNumFns]string{
	"spawn", "txnRoot",
	"noDistrict", "noInsert", "noPush", "noItemSpawn", "noItemRead", "noStock", "noLine",
	"payWarehouse", "payDistrict", "payCustomer",
	"osCustomer", "osDistrict", "osScan",
	"dlvSpawn", "dlvPop", "dlvOrder", "dlvLine", "dlvCustomer",
	"slDistrict", "slScan",
}

// SwarmApp implements Benchmark; the function table is the constants
// above, one entry per transaction pipeline stage.
func (b *Silo) SwarmApp() SwarmApp {
	var l *tpcc.Layout
	app := SwarmApp{}
	app.Build = func(ab *guest.AppBuild) []guest.TaskDesc {
		l = tpcc.Pack(b.sc, b.txns, ab.Alloc, ab.Store)

		txnBase := func(e guest.TaskEnv) (base uint64, i uint64) {
			i = e.Arg(0)
			return l.TxnAddr(i), i
		}

		fns := make([]guest.TaskFn, siloNumFns)
		fns[siloSpawn] = func(e guest.TaskEnv) {
			frontier.SpawnRange(e, siloSpawn, func(e guest.TaskEnv, i uint64) {
				e.EnqueueHinted(siloTxnRoot, i<<tsBits, hintTxn(i), [3]uint64{i})
			})
		}
		fns[siloTxnRoot] = func(e guest.TaskEnv) { // txnRoot
			base, i := txnBase(e)
			typ := tpcc.TxnType(e.Load(base))
			ts := e.Timestamp()
			e.Work(150)
			switch typ {
			case tpcc.NewOrder:
				e.EnqueueHinted(siloNoDistrict, ts+1, hintTxn(i), [3]uint64{i})
			case tpcc.Payment:
				e.EnqueueHinted(siloPayW, ts+1, hintTxn(i), [3]uint64{i})
				e.EnqueueHinted(siloPayD, ts+2, hintTxn(i), [3]uint64{i})
				e.EnqueueHinted(siloPayC, ts+3, hintTxn(i), [3]uint64{i})
			case tpcc.OrderStatus:
				e.EnqueueHinted(siloOsCust, ts+1, hintTxn(i), [3]uint64{i})
				e.EnqueueHinted(siloOsDistrict, ts+2, hintTxn(i), [3]uint64{i})
			case tpcc.Delivery:
				e.EnqueueHinted(siloDlvSpawn, ts+1, hintTxn(i), [3]uint64{i, 0})
			case tpcc.StockLevel:
				e.EnqueueHinted(siloSlDistrict, ts+1, hintTxn(i), [3]uint64{i})
			}
		}

		// --- NewOrder pipeline ---
		fns[siloNoDistrict] = func(e guest.TaskEnv) { // noDistrict: the district tuple
			base, i := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			dAddr := l.DistrictAddr(w, d)
			_ = e.Load(dAddr + tpcc.FDTax*8)
			oid := e.Load(dAddr + tpcc.FDNextOID*8)
			e.Store(dAddr+tpcc.FDNextOID*8, oid+1)
			e.Work(250)
			if oid >= uint64(l.Scale.MaxOrders) {
				panic("silo: order table overflow; raise Scale.MaxOrders")
			}
			ts := e.Timestamp()
			e.EnqueueHinted(siloNoInsert, ts+1, hintDistrict(w, d), [3]uint64{i, oid})
			e.EnqueueHinted(siloNoPush, ts+2, hintDistrict(w, d), [3]uint64{i, oid})
			e.EnqueueHinted(siloNoItemSpawn, ts+3, hintTxn(i), [3]uint64{i, oid, 0})
		}
		fns[siloNoInsert] = func(e guest.TaskEnv) { // noInsert: the order tuple
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			c := e.Load(base + 3*8)
			n := e.Load(base + 7*8)
			oid := e.Arg(1)
			oAddr := l.OrderAddr(w, d, oid)
			e.Store(oAddr+tpcc.FOCid*8, c)
			e.Store(oAddr+tpcc.FOOlCnt*8, n)
			e.Work(250)
		}
		fns[siloNoPush] = func(e guest.TaskEnv) { // noPush: the new-order queue tuple
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			oid := e.Arg(1)
			nq := l.NOQAddr(w, d)
			tail := e.Load(nq + tpcc.FNOTail*8)
			e.Store(l.NORingAddr(w, d, tail), oid)
			e.Store(nq+tpcc.FNOTail*8, tail+1)
			e.Work(250)
		}
		fns[siloNoItemSpawn] = func(e guest.TaskEnv) { // noItemSpawn: fan out item chains
			base, i := txnBase(e)
			oid := e.Arg(1)
			j0 := e.Arg(2)
			n := e.Load(base + 7*8)
			ts := e.Timestamp()
			e.Work(4)
			end := j0 + guest.MaxChildren - 1
			if end > n {
				end = n
			}
			for j := j0; j < end; j++ {
				e.EnqueueHinted(siloNoItemRead, ts+2+3*j, hintTxn(i), [3]uint64{i, packOidJ(oid, j)})
			}
			if end < n {
				e.EnqueueHinted(siloNoItemSpawn, ts, hintTxn(i), [3]uint64{i, oid, end})
			}
		}
		fns[siloNoItemRead] = func(e guest.TaskEnv) { // noItemRead: the item tuple
			base, i := txnBase(e)
			oid, j := unpackOidJ(e.Arg(1))
			item := e.Load(base + (8+3*j)*8)
			price := e.Load(l.ItemAddr(item) + tpcc.FIPrice*8)
			e.Work(250)
			e.EnqueueHinted(siloNoStock, e.Timestamp()+1, hintItem(item), [3]uint64{i, packOidJ(oid, j), price})
		}
		fns[siloNoStock] = func(e guest.TaskEnv) { // noStock: one stock tuple
			base, i := txnBase(e)
			_, j := unpackOidJ(e.Arg(1))
			w := e.Load(base + 1*8)
			ib := base + (8+3*j)*8
			item := e.Load(ib)
			supplyW := e.Load(ib + 8)
			qty := e.Load(ib + 16)
			sAddr := l.StockAddr(supplyW, item)
			sq := e.Load(sAddr + tpcc.FSQty*8)
			if sq >= qty+10 {
				sq -= qty
			} else {
				sq = sq - qty + 91
			}
			e.Store(sAddr+tpcc.FSQty*8, sq)
			e.Store(sAddr+tpcc.FSYtd*8, e.Load(sAddr+tpcc.FSYtd*8)+qty)
			e.Store(sAddr+tpcc.FSOrderCnt*8, e.Load(sAddr+tpcc.FSOrderCnt*8)+1)
			if supplyW != w {
				e.Store(sAddr+tpcc.FSRemoteCnt*8, e.Load(sAddr+tpcc.FSRemoteCnt*8)+1)
			}
			e.Work(250)
			price := e.Arg(2)
			e.EnqueueHinted(siloNoLine, e.Timestamp()+1, hintTxn(i), [3]uint64{i, e.Arg(1), qty * price})
		}
		fns[siloNoLine] = func(e guest.TaskEnv) { // noLine: one order-line tuple
			base, _ := txnBase(e)
			oid, j := unpackOidJ(e.Arg(1))
			amount := e.Arg(2)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			ib := base + (8+3*j)*8
			item := e.Load(ib)
			supplyW := e.Load(ib + 8)
			qty := e.Load(ib + 16)
			olAddr := l.OLAddr(w, d, oid, j)
			e.Store(olAddr+tpcc.FOLItem*8, item)
			e.Store(olAddr+tpcc.FOLSupplyW*8, supplyW)
			e.Store(olAddr+tpcc.FOLQty*8, qty)
			e.Store(olAddr+tpcc.FOLAmount*8, amount)
			e.Work(250)
		}

		// --- Payment ---
		fns[siloPayW] = func(e guest.TaskEnv) { // warehouse tuple
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			a := e.Load(base + 4*8)
			wAddr := l.WarehouseAddr(w)
			e.Store(wAddr+tpcc.FWYtd*8, e.Load(wAddr+tpcc.FWYtd*8)+a)
			e.Work(250)
		}
		fns[siloPayD] = func(e guest.TaskEnv) { // district tuple
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			a := e.Load(base + 4*8)
			dAddr := l.DistrictAddr(w, d)
			e.Store(dAddr+tpcc.FDYtd*8, e.Load(dAddr+tpcc.FDYtd*8)+a)
			e.Work(250)
		}
		fns[siloPayC] = func(e guest.TaskEnv) { // customer tuple
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			c := e.Load(base + 3*8)
			a := e.Load(base + 4*8)
			cAddr := l.CustomerAddr(w, d, c)
			e.Store(cAddr+tpcc.FCBalance*8, e.Load(cAddr+tpcc.FCBalance*8)-a)
			e.Store(cAddr+tpcc.FCYtdPayment*8, e.Load(cAddr+tpcc.FCYtdPayment*8)+a)
			e.Store(cAddr+tpcc.FCPaymentCnt*8, e.Load(cAddr+tpcc.FCPaymentCnt*8)+1)
			e.Work(250)
		}

		// --- OrderStatus (read-only) ---
		fns[siloOsCust] = func(e guest.TaskEnv) {
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			c := e.Load(base + 3*8)
			_ = e.Load(l.CustomerAddr(w, d, c) + tpcc.FCBalance*8)
			e.Work(250)
		}
		fns[siloOsDistrict] = func(e guest.TaskEnv) {
			base, i := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			oid := e.Load(l.DistrictAddr(w, d) + tpcc.FDNextOID*8)
			e.Work(250)
			if oid > 0 {
				e.EnqueueHinted(siloOsScan, e.Timestamp()+1, hintDistrict(w, d), [3]uint64{i, oid - 1})
			}
		}
		fns[siloOsScan] = func(e guest.TaskEnv) { // scan one order's lines
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			oid := e.Arg(1)
			oAddr := l.OrderAddr(w, d, oid)
			cnt := e.Load(oAddr + tpcc.FOOlCnt*8)
			_ = e.Load(oAddr + tpcc.FOCarrier*8)
			for j := uint64(0); j < cnt; j++ {
				_ = e.Load(l.OLAddr(w, d, oid, j) + tpcc.FOLAmount*8)
				e.Work(4)
			}
			e.Work(20)
		}

		// --- Delivery ---
		fns[siloDlvSpawn] = func(e guest.TaskEnv) { // fan out districts (7 + chain)
			_, i := txnBase(e)
			d0 := e.Arg(1)
			ts := e.Timestamp()
			e.Work(4)
			end := d0 + guest.MaxChildren - 1
			if end > uint64(l.Scale.Districts) {
				end = uint64(l.Scale.Districts)
			}
			for d := d0; d < end; d++ {
				e.EnqueueHinted(siloDlvPop, ts+1+d*5, hintTxn(i), [3]uint64{i, d})
			}
			if end < uint64(l.Scale.Districts) {
				e.EnqueueHinted(siloDlvSpawn, ts, hintTxn(i), [3]uint64{i, end})
			}
		}
		fns[siloDlvPop] = func(e guest.TaskEnv) { // dlvPop: the queue tuple
			base, i := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Arg(1)
			nq := l.NOQAddr(w, d)
			head := e.Load(nq + tpcc.FNOHead*8)
			tail := e.Load(nq + tpcc.FNOTail*8)
			e.Work(250)
			if head == tail {
				return
			}
			oid := e.Load(l.NORingAddr(w, d, head))
			e.Store(nq+tpcc.FNOHead*8, head+1)
			e.EnqueueHinted(siloDlvOrder, e.Timestamp()+1, hintDistrict(w, d), [3]uint64{i, packDlv(d, oid, 0, 0, 0)})
		}
		fns[siloDlvOrder] = func(e guest.TaskEnv) { // dlvOrder: the order tuple
			base, i := txnBase(e)
			d, oid, _, _, _ := unpackDlv(e.Arg(1))
			w := e.Load(base + 1*8)
			carrier := e.Load(base + 5*8)
			oAddr := l.OrderAddr(w, d, oid)
			e.Store(oAddr+tpcc.FOCarrier*8, carrier)
			cnt := e.Load(oAddr + tpcc.FOOlCnt*8)
			cid := e.Load(oAddr + tpcc.FOCid*8)
			e.Work(250)
			e.EnqueueHinted(siloDlvLine, e.Timestamp()+1, hintDistrict(w, d), [3]uint64{i, packDlv(d, oid, cid, cnt, 0), 0})
		}
		fns[siloDlvLine] = func(e guest.TaskEnv) { // dlvLine: one order-line tuple
			base, i := txnBase(e)
			d, oid, cid, cnt, j := unpackDlv(e.Arg(1))
			acc := e.Arg(2)
			w := e.Load(base + 1*8)
			carrier := e.Load(base + 5*8)
			if j < cnt {
				olAddr := l.OLAddr(w, d, oid, j)
				acc += e.Load(olAddr + tpcc.FOLAmount*8)
				e.Store(olAddr+tpcc.FOLDelivery*8, carrier)
				e.Work(8)
			}
			if j+1 < cnt {
				e.EnqueueHinted(siloDlvLine, e.Timestamp(), hintDistrict(w, d), [3]uint64{i, packDlv(d, oid, cid, cnt, j+1), acc})
			} else {
				e.EnqueueHinted(siloDlvCust, e.Timestamp()+1, hintDistrict(w, d), [3]uint64{i, packDlv(d, oid, cid, cnt, 0), acc})
			}
		}
		fns[siloDlvCust] = func(e guest.TaskEnv) { // dlvCust: the customer tuple
			base, _ := txnBase(e)
			d, _, cid, _, _ := unpackDlv(e.Arg(1))
			total := e.Arg(2)
			w := e.Load(base + 1*8)
			cAddr := l.CustomerAddr(w, d, cid)
			e.Store(cAddr+tpcc.FCBalance*8, e.Load(cAddr+tpcc.FCBalance*8)+total)
			e.Store(cAddr+tpcc.FCDeliveryCnt*8, e.Load(cAddr+tpcc.FCDeliveryCnt*8)+1)
			e.Work(250)
		}

		// --- StockLevel (read-only) ---
		fns[siloSlDistrict] = func(e guest.TaskEnv) {
			base, i := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			next := e.Load(l.DistrictAddr(w, d) + tpcc.FDNextOID*8)
			e.Work(250)
			lo := uint64(0)
			if next > 8 {
				lo = next - 8
			}
			for o := lo; o < next; o++ {
				e.EnqueueHinted(siloSlScan, e.Timestamp()+1, hintDistrict(w, d), [3]uint64{i, o})
			}
		}
		fns[siloSlScan] = func(e guest.TaskEnv) { // scan one order's stock levels
			base, _ := txnBase(e)
			w := e.Load(base + 1*8)
			d := e.Load(base + 2*8)
			threshold := e.Load(base + 6*8)
			o := e.Arg(1)
			oAddr := l.OrderAddr(w, d, o)
			cnt := e.Load(oAddr + tpcc.FOOlCnt*8)
			low := uint64(0)
			for j := uint64(0); j < cnt; j++ {
				item := e.Load(l.OLAddr(w, d, o, j) + tpcc.FOLItem*8)
				if e.Load(l.StockAddr(w, item)+tpcc.FSQty*8) < threshold {
					low++
				}
				e.Work(4)
			}
			e.Work(20)
			_ = low
		}

		for i, fn := range fns {
			ab.Fn(siloFnNames[i], fn)
		}
		return []guest.TaskDesc{{Fn: siloSpawn, TS: 0, Args: [3]uint64{0, uint64(len(b.txns))}}}
	}
	app.Verify = func(load func(uint64) uint64) error { return b.verify(load, l) }
	return app
}

// SerialApp implements Benchmark: iterations are whole transactions —
// which is exactly why ideal TLS underperforms Swarm on silo (Table 1:
// 45x vs 318x): the sequential grain is the transaction, not the tuple
// access.
func (b *Silo) SerialApp() SerialApp {
	var l *tpcc.Layout
	return SerialApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
			l = tpcc.Pack(b.sc, b.txns, alloc, store)
			return func(e guest.Env, mark func()) {
				for i := range b.txns {
					mark()
					tpcc.ExecTxn(e, l, uint64(i))
				}
			}
		},
		Verify: func(load func(uint64) uint64) error { return b.verify(load, l) },
	}
}

// ------------------------------------------------------------------ OCC --

// occEnv adapts guest.Env to Silo's optimistic concurrency control: reads
// record per-tuple versions, writes are buffered, and commit locks the
// write set (sorted), validates the read set, applies and bumps versions.
type occEnv struct {
	e       guest.ThreadEnv
	l       *tpcc.Layout
	reads   map[uint64]uint64 // version addr -> observed version
	rOrder  []uint64          // observed version addrs, insertion order
	writes  map[uint64]uint64 // field addr -> buffered value
	wOrder  []uint64          // buffered write field addrs, insertion order
	wTuples map[uint64]bool   // version addrs of written tuples
}

func newOCC(e guest.ThreadEnv, l *tpcc.Layout) *occEnv {
	return &occEnv{
		e: e, l: l,
		reads:   make(map[uint64]uint64),
		writes:  make(map[uint64]uint64),
		wTuples: make(map[uint64]bool),
	}
}

func (o *occEnv) observe(vaddr uint64) {
	if _, ok := o.reads[vaddr]; ok {
		return
	}
	for {
		v := o.e.Load(vaddr)
		if v&1 == 0 {
			o.reads[vaddr] = v
			o.rOrder = append(o.rOrder, vaddr)
			return
		}
		o.e.Work(20) // writer holds the tuple lock; spin
	}
}

// Load implements guest.Env: reads see the transaction's own writes.
func (o *occEnv) Load(addr uint64) uint64 {
	if v, ok := o.writes[addr]; ok {
		return v
	}
	if vaddr, ok := o.l.VersionAddr(addr); ok {
		o.observe(vaddr)
	}
	return o.e.Load(addr)
}

// Store implements guest.Env: writes buffer until commit.
func (o *occEnv) Store(addr, val uint64) {
	vaddr, ok := o.l.VersionAddr(addr)
	if !ok {
		panic("silo: write outside versioned tables")
	}
	o.wTuples[vaddr] = true
	if _, seen := o.writes[addr]; !seen {
		o.wOrder = append(o.wOrder, addr)
	}
	o.writes[addr] = val
}

// Work implements guest.Env.
func (o *occEnv) Work(n uint64) { o.e.Work(n) }

// Alloc implements guest.Env.
func (o *occEnv) Alloc(n uint64) uint64 { return o.e.Alloc(n) }

// Free implements guest.Env.
func (o *occEnv) Free(a, n uint64) { o.e.Free(a, n) }

// commit runs Silo's validation protocol; returns false on abort.
func (o *occEnv) commit() bool {
	e := o.e
	// Phase 1: lock the write set in address order (deadlock-free).
	tuples := make([]uint64, 0, len(o.wTuples))
	for t := range o.wTuples {
		tuples = append(tuples, t)
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i] < tuples[j] })
	locked := make(map[uint64]uint64, len(tuples))
	for _, t := range tuples {
		for {
			v := e.Load(t)
			e.Work(2)
			if v&1 != 0 {
				e.Work(20)
				continue
			}
			if e.CAS(t, v, v|1) {
				locked[t] = v
				break
			}
		}
	}
	// Phase 2: validate the read set in the order it was built. Iterating
	// the reads map directly would make simulated cycle counts depend on
	// Go's randomized map order — the validation walk must be
	// deterministic for runs to be reproducible.
	ok := true
	for _, vaddr := range o.rOrder {
		seen := o.reads[vaddr]
		cur := e.Load(vaddr)
		e.Work(2)
		if lockedV, mine := locked[vaddr]; mine {
			if lockedV != seen {
				ok = false
				break
			}
			continue
		}
		if cur != seen { // changed or locked by someone else
			ok = false
			break
		}
	}
	if !ok {
		for _, t := range tuples {
			e.Store(t, locked[t]) // unlock, version unchanged
		}
		return false
	}
	// Phase 3: apply buffered writes, bump versions, unlock.
	for _, addr := range o.wOrder {
		e.Store(addr, o.writes[addr])
	}
	for _, t := range tuples {
		e.Store(t, locked[t]+2)
	}
	return true
}

// ParallelApp implements Parallel: worker threads claim transactions
// from a shared counter and run them under OCC, retrying on validation
// failure (the wasted work that grows as warehouses shrink, Fig 13).
// Concurrent transactions commit in any serializable order, so Verify
// compares the commutative aggregates against the reference.
func (b *Silo) ParallelApp() ParallelApp {
	var l *tpcc.Layout
	return ParallelApp{
		Build: func(alloc func(uint64) uint64, store func(addr, val uint64), _ uint64) guest.ThreadFn {
			l = tpcc.Pack(b.sc, b.txns, alloc, store)
			ctr := alloc(64)
			return func(e guest.ThreadEnv) {
				swrt.Claim(e, ctr, uint64(len(b.txns)), 1, func(i uint64) {
					for attempt := 0; ; attempt++ {
						occ := newOCC(e, l)
						tpcc.ExecTxn(occ, l, i)
						if occ.commit() {
							return
						}
						e.Work(uint64(20 * (attempt + 1))) // backoff before retry
					}
				})
			}
		},
		Verify: func(load func(uint64) uint64) error {
			return l.CompareCommutative(load, b.reference())
		},
	}
}
