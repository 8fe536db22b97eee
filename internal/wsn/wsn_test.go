package wsn

import (
	"errors"
	"testing"
	"testing/quick"

	"zeiot/internal/geom"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
)

func TestGridConnectivity(t *testing.T) {
	n := NewGrid(3, 4, 1)
	if n.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d", n.NumNodes())
	}
	if !n.Connected() {
		t.Fatal("grid not connected")
	}
	// Axial neighbours linked; diagonals too (dist √2 < 1.5).
	if !n.Linked(0, 1) || !n.Linked(0, 4) || !n.Linked(0, 5) {
		t.Fatal("expected links missing")
	}
	// Distance-2 nodes not linked.
	if n.Linked(0, 2) {
		t.Fatal("unexpected long link")
	}
}

func TestHopsMetricProperties(t *testing.T) {
	n := NewGrid(4, 4, 1)
	// Symmetry and triangle inequality on a sample of triples.
	err := quick.Check(func(a, b, c uint8) bool {
		i, j, k := int(a)%16, int(b)%16, int(c)%16
		if n.Hops(i, j) != n.Hops(j, i) {
			return false
		}
		return n.Hops(i, k) <= n.Hops(i, j)+n.Hops(j, k)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Hops(0, 0) != 0 {
		t.Fatal("self distance != 0")
	}
	// Corner to corner on 4x4 with diagonal links: 3 hops.
	if n.Hops(0, 15) != 3 {
		t.Fatalf("corner-corner hops = %d", n.Hops(0, 15))
	}
}

func TestRouteValidity(t *testing.T) {
	n := NewGrid(4, 4, 1)
	route, err := n.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if route[0] != 0 || route[len(route)-1] != 15 {
		t.Fatalf("route endpoints %v", route)
	}
	if len(route)-1 != n.Hops(0, 15) {
		t.Fatalf("route length %d != hops %d", len(route)-1, n.Hops(0, 15))
	}
	for k := 0; k+1 < len(route); k++ {
		if !n.Linked(route[k], route[k+1]) {
			t.Fatalf("route uses non-link %d-%d", route[k], route[k+1])
		}
	}
}

func TestSendChargesRoute(t *testing.T) {
	n := NewGrid(1, 4, 1) // chain with range 1.5: links 0-1,1-2,2-3 only
	hops, err := n.Send(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 3 {
		t.Fatalf("hops = %d", hops)
	}
	// 0 and the two forwarders each transmit 10 scalars.
	if n.Node(0).TxScalars != 10 || n.Node(1).TxScalars != 10 || n.Node(2).TxScalars != 10 {
		t.Fatalf("tx costs = %v", n.Costs())
	}
	if n.Node(3).TxScalars != 0 {
		t.Fatal("destination charged for transmit")
	}
	if n.Node(3).RxScalars != 10 || n.Node(1).RxScalars != 10 {
		t.Fatal("rx accounting wrong")
	}
	// Cost = tx + rx: endpoints 10 each, forwarders 20 each.
	if n.Node(0).Cost() != 10 || n.Node(1).Cost() != 20 || n.Node(3).Cost() != 10 {
		t.Fatalf("costs = %v", n.Costs())
	}
	if totalCost(n) != 60 || n.MaxCost() != 20 {
		t.Fatalf("TotalCost=%d MaxCost=%d", totalCost(n), n.MaxCost())
	}
}

func TestSendToSelfFree(t *testing.T) {
	n := NewGrid(2, 2, 1)
	hops, err := n.Send(1, 1, 100)
	if err != nil || hops != 0 {
		t.Fatalf("self send: hops=%d err=%v", hops, err)
	}
	if totalCost(n) != 0 {
		t.Fatal("self send charged")
	}
}

func TestResetCounters(t *testing.T) {
	n := NewGrid(1, 3, 1)
	if _, err := n.Send(0, 2, 5); err != nil {
		t.Fatal(err)
	}
	n.ResetCounters()
	if totalCost(n) != 0 {
		t.Fatal("counters not reset")
	}
}

func TestFailureReroutesAndPartitions(t *testing.T) {
	// 3x3 grid: failing the whole middle column except via diagonals...
	// Use a 1x5 chain: failing node 2 partitions it.
	n := NewGrid(1, 5, 1)
	if n.Hops(0, 4) != 4 {
		t.Fatalf("chain hops = %d", n.Hops(0, 4))
	}
	n.Fail(2)
	if n.Connected() {
		t.Fatal("chain still connected after cutting middle")
	}
	if _, err := n.Send(0, 4, 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	n.Recover(2)
	if !n.Connected() {
		t.Fatal("recover did not restore connectivity")
	}
	if _, err := n.Send(0, 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFailureReroutesAroundNode(t *testing.T) {
	n := NewGrid(3, 3, 1)
	n.Fail(4)                   // centre
	route, err := n.Route(3, 5) // left-middle to right-middle
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range route {
		if v == 4 {
			t.Fatal("route passes through failed node")
		}
	}
}

func TestLiveExcludesFailed(t *testing.T) {
	n := NewGrid(2, 2, 1)
	n.Fail(3)
	live := n.Live()
	if len(live) != 3 {
		t.Fatalf("live = %v", live)
	}
	for _, id := range live {
		if id == 3 {
			t.Fatal("failed node listed live")
		}
	}
}

func TestMeasureInterNodeDetectsBlockingPerson(t *testing.T) {
	n := NewGrid(1, 2, 2) // two nodes 2 m apart
	model := radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.5}
	clear := n.MeasureInterNode(model, 0, nil, 0.3, nil)
	person := []geom.Point{{X: 1, Y: 0}}
	blocked := n.MeasureInterNode(model, 0, person, 0.3, nil)
	if len(clear) != 2 || len(blocked) != 2 {
		t.Fatalf("link counts: %d, %d", len(clear), len(blocked))
	}
	drop := clear[0].DBm - blocked[0].DBm
	if drop != radio.BodyAttenuationDB {
		t.Fatalf("body drop = %v dB", drop)
	}
}

func TestMeasureSurroundingScalesWithDevices(t *testing.T) {
	n := NewGrid(1, 1, 1)
	model := radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.5}
	noise := -95.0
	none := n.MeasureSurrounding(model, 10, nil, noise, nil)
	if none[0] != noise {
		t.Fatalf("no devices: %v, want noise floor", none[0])
	}
	one := n.MeasureSurrounding(model, 10, []geom.Point{{X: 2, Y: 0}}, noise, nil)
	two := n.MeasureSurrounding(model, 10, []geom.Point{{X: 2, Y: 0}, {X: 0, Y: 2}}, noise, nil)
	if !(two[0] > one[0] && one[0] > none[0]) {
		t.Fatalf("surrounding RSSI not increasing: %v %v %v", none[0], one[0], two[0])
	}
}

func TestFailedNodeMeasuresNothing(t *testing.T) {
	n := NewGrid(1, 2, 2)
	n.Fail(0)
	model := radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.5}
	links := n.MeasureInterNode(model, 0, nil, 0.3, nil)
	if len(links) != 0 {
		t.Fatalf("failed-node links measured: %v", links)
	}
	sur := n.MeasureSurrounding(model, 10, []geom.Point{{X: 1, Y: 0}}, -95, nil)
	if sur[0] != -95 {
		t.Fatal("failed node reported device power")
	}
}

func TestDeterministicMeasurementWithSeed(t *testing.T) {
	n := NewGrid(2, 2, 1)
	model := radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 3.0, ShadowSigmaDB: 4}
	a := n.MeasureInterNode(model, 0, nil, 0.3, rng.New(5))
	b := n.MeasureInterNode(model, 0, nil, 0.3, rng.New(5))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different measurements")
		}
	}
}

// totalCost returns the sum of per-node communication costs.
func totalCost(n *Network) int {
	t := 0
	for _, nd := range n.nodes {
		t += nd.Cost()
	}
	return t
}
