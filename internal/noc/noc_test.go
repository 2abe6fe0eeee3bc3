package noc

import "testing"

func TestMeshDims(t *testing.T) {
	cases := []struct{ tiles, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 3, 3}, {9, 3, 3}, {16, 4, 4},
	}
	for _, c := range cases {
		m := New(c.tiles)
		w, h := m.Dims()
		if w != c.w || h != c.h {
			t.Errorf("tiles=%d: dims=%dx%d, want %dx%d", c.tiles, w, h, c.w, c.h)
		}
		if w*h < c.tiles {
			t.Errorf("tiles=%d: mesh too small", c.tiles)
		}
	}
}

func TestHopsXY(t *testing.T) {
	m := New(16) // 4x4
	if m.Hops(0, 0) != 0 {
		t.Error("self hops != 0")
	}
	if m.Hops(0, 3) != 3 { // same row
		t.Errorf("Hops(0,3) = %d", m.Hops(0, 3))
	}
	if m.Hops(0, 15) != 6 { // opposite corner of 4x4
		t.Errorf("Hops(0,15) = %d", m.Hops(0, 15))
	}
	if m.Hops(5, 10) != m.Hops(10, 5) {
		t.Error("hops not symmetric")
	}
	if m.Latency(0, 15) != 18 {
		t.Errorf("Latency(0,15) = %d, want 18", m.Latency(0, 15))
	}
}

func TestTriangleInequality(t *testing.T) {
	m := New(16)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			for c := 0; c < 16; c++ {
				if m.Hops(a, c) > m.Hops(a, b)+m.Hops(b, c) {
					t.Fatalf("triangle inequality violated %d %d %d", a, b, c)
				}
			}
		}
	}
}

func TestEdgeLatency(t *testing.T) {
	m := New(16)
	if m.EdgeLatency(0) != 0 { // corner is on the edge
		t.Errorf("corner EdgeLatency = %d", m.EdgeLatency(0))
	}
	if m.EdgeLatency(5) != 3 { // (1,1) is 1 hop from edge
		t.Errorf("EdgeLatency(5) = %d, want 3", m.EdgeLatency(5))
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := New(4)
	m.Send(0, 1, ClassMem, 72)
	m.Send(0, 2, ClassEnqueue, TaskDescBytes)
	m.Send(1, 0, ClassAbort, AbortMsgBytes)
	m.Account(3, ClassGVT, GVTMsgBytes)
	if m.Send(2, 2, ClassMem, 100) != 0 {
		t.Error("self-send should have zero latency")
	}
	tot := m.TotalBytes()
	if tot[ClassMem] != 72 { // self-send not accounted
		t.Errorf("mem bytes = %d, want 72", tot[ClassMem])
	}
	if tot[ClassEnqueue] != TaskDescBytes || tot[ClassAbort] != AbortMsgBytes || tot[ClassGVT] != GVTMsgBytes {
		t.Errorf("byte totals wrong: %v", tot)
	}
	if got := m.InjectedBytes(0); got[ClassMem] != 72 {
		t.Errorf("tile 0 mem bytes = %d", got[ClassMem])
	}
	msgs := m.TotalMessages()
	if msgs[ClassMem] != 1 || msgs[ClassEnqueue] != 1 {
		t.Errorf("message counts wrong: %v", msgs)
	}
}

func TestClassString(t *testing.T) {
	if ClassMem.String() != "mem" || ClassGVT.String() != "gvt" {
		t.Error("class names wrong")
	}
	if Class(99).String() == "" {
		t.Error("out-of-range class name empty")
	}
}
