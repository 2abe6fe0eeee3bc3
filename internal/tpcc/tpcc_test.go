package tpcc

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
)

func TestGenerateMix(t *testing.T) {
	sc := DefaultScale(2, 1000)
	txns := Generate(sc, 1000, 7)
	mix := Mix(txns)
	// Expect roughly 45/43/4/4/4 (+-5 points at n=1000).
	within := func(got, wantPct int) bool {
		return got > (wantPct-6)*10 && got < (wantPct+6)*10
	}
	if !within(mix[NewOrder], 45) || !within(mix[Payment], 43) {
		t.Fatalf("mix off: %v", mix)
	}
	for _, tx := range txns {
		if tx.W >= sc.Warehouses || tx.D >= sc.Districts || tx.C >= sc.Customers {
			t.Fatal("out-of-range transaction parameters")
		}
		if tx.Type == NewOrder && (len(tx.Items) < 5 || len(tx.Items) > 15) {
			t.Fatalf("new order with %d items", len(tx.Items))
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	sc := DefaultScale(2, 100)
	a := Generate(sc, 100, 3)
	b := Generate(sc, 100, 3)
	for i := range a {
		if a[i].Type != b[i].Type || a[i].W != b[i].W || a[i].Amount != b[i].Amount {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestLayoutTuplesDisjoint(t *testing.T) {
	sc := DefaultScale(2, 100)
	env := newHostEnv()
	l := Pack(sc, nil, env.Alloc, env.Store)
	// Consecutive tuples must be 64B apart (one conflict line each).
	if l.DistrictAddr(0, 1)-l.DistrictAddr(0, 0) != tupleBytes {
		t.Fatal("district stride wrong")
	}
	if l.CustomerAddr(0, 0, 1)%64 != 0 {
		t.Fatal("customer tuple misaligned")
	}
	if l.StockAddr(1, 0) <= l.StockAddr(0, uint64(sc.Items)-1) {
		t.Fatal("stock warehouses overlap")
	}
}

// TestReferenceInvariants: the reference execution satisfies the TPC-C
// consistency conditions our validators rely on.
func TestReferenceInvariants(t *testing.T) {
	sc := DefaultScale(2, 400)
	txns := Generate(sc, 400, 11)
	l, load := Reference(sc, txns)
	mix := Mix(txns)

	var totalOrders uint64
	for w := uint64(0); w < uint64(sc.Warehouses); w++ {
		for d := uint64(0); d < uint64(sc.Districts); d++ {
			next := load(l.DistrictAddr(w, d) + FDNextOID*8)
			tail := load(l.NOQAddr(w, d) + FNOTail*8)
			if next != tail {
				t.Fatalf("district (%d,%d): next_o_id %d != no_tail %d", w, d, next, tail)
			}
			totalOrders += next
			head := load(l.NOQAddr(w, d) + FNOHead*8)
			if head > tail {
				t.Fatalf("queue head %d beyond tail %d", head, tail)
			}
		}
	}
	if totalOrders != uint64(mix[NewOrder]) {
		t.Fatalf("order count %d != NewOrder count %d", totalOrders, mix[NewOrder])
	}

	// Payments sum to warehouse + district YTDs.
	var paySum, wYtd, dYtd uint64
	for _, tx := range txns {
		if tx.Type == Payment {
			paySum += tx.Amount
		}
	}
	for w := uint64(0); w < uint64(sc.Warehouses); w++ {
		wYtd += load(l.WarehouseAddr(w) + FWYtd*8)
		for d := uint64(0); d < uint64(sc.Districts); d++ {
			dYtd += load(l.DistrictAddr(w, d) + FDYtd*8)
		}
	}
	if wYtd != paySum || dYtd != paySum {
		t.Fatalf("ytd sums: w=%d d=%d, payments=%d", wYtd, dYtd, paySum)
	}
}

// TestSerialMachineMatchesReference: running the same bodies on the timed
// serial machine produces exactly the reference state.
func TestSerialMachineMatchesReference(t *testing.T) {
	sc := DefaultScale(2, 200)
	txns := Generate(sc, 200, 13)
	m := smp.NewSerialMachine(1)
	l := Pack(sc, txns, m.SetupAlloc, m.Mem().Store)
	cycles := m.Run(func(e guest.Env) {
		for i := 0; i < len(txns); i++ {
			ExecTxn(e, l, uint64(i))
		}
	})
	if cycles == 0 {
		t.Fatal("no cycles")
	}
	refL, refLoad := Reference(sc, txns)
	_ = refL
	if err := l.CompareExact(m.Mem().Load, refLoad); err != nil {
		t.Fatal(err)
	}
	// Exact comparison implies the commutative one.
	if err := l.CompareCommutative(m.Mem().Load, refLoad); err != nil {
		t.Fatal(err)
	}
}

func TestCompareDetectsCorruption(t *testing.T) {
	sc := DefaultScale(1, 50)
	txns := Generate(sc, 50, 17)
	l, refLoad := Reference(sc, txns)
	// A corrupted copy must be caught.
	bad := func(a uint64) uint64 {
		if a == l.WarehouseAddr(0)+FWYtd*8 {
			return refLoad(a) + 1
		}
		return refLoad(a)
	}
	if err := l.CompareExact(bad, refLoad); err == nil {
		t.Fatal("CompareExact missed a corrupted word")
	}
	if err := l.CompareCommutative(bad, refLoad); err == nil {
		t.Fatal("CompareCommutative missed a corrupted YTD")
	}
}
