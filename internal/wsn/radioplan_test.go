package wsn

import (
	"testing"

	"zeiot/internal/geom"
)

func TestRadioPlanLinkBudget(t *testing.T) {
	plan := DefaultRadioPlan()
	a := geom.Point{X: 0, Y: 0}
	near := plan.LinkBudgetDBm(a, geom.Point{X: 2, Y: 0})
	far := plan.LinkBudgetDBm(a, geom.Point{X: 20, Y: 0})
	if far >= near {
		t.Fatal("budget not decreasing with distance")
	}
	if !plan.Usable(a, geom.Point{X: 2, Y: 0}) {
		t.Fatal("2 m link should close")
	}
	if plan.Usable(a, geom.Point{X: 500, Y: 0}) {
		t.Fatal("500 m link should not close")
	}
}

func TestWallAttenuatesLink(t *testing.T) {
	plan := DefaultRadioPlan()
	a, b := geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}
	open := plan.LinkBudgetDBm(a, b)
	plan.Walls = []Wall{{A: geom.Point{X: 2, Y: -1}, B: geom.Point{X: 2, Y: 1}, LossDB: 15}}
	blocked := plan.LinkBudgetDBm(a, b)
	if open-blocked != 15 {
		t.Fatalf("wall loss = %v dB, want 15", open-blocked)
	}
	// A wall parallel to the link (not crossing) costs nothing.
	plan.Walls = []Wall{{A: geom.Point{X: 0, Y: 2}, B: geom.Point{X: 4, Y: 2}, LossDB: 15}}
	if plan.LinkBudgetDBm(a, b) != open {
		t.Fatal("non-crossing wall attenuated link")
	}
}

func TestNewFromRadioPlanConnectivity(t *testing.T) {
	// Two clusters of nodes separated by a heavy wall: without the wall
	// one component, with it two (until a relay is placed at the gap).
	positions := []geom.Point{
		{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0},
		{X: 8, Y: 0}, {X: 10, Y: 0}, {X: 12, Y: 0},
	}
	plan := DefaultRadioPlan()
	open := NewFromRadioPlan(positions, plan)
	if !open.Connected() {
		t.Fatal("open-space chain not connected")
	}
	plan.Walls = []Wall{{A: geom.Point{X: 6, Y: -5}, B: geom.Point{X: 6, Y: 5}, LossDB: 40}}
	walled := NewFromRadioPlan(positions, plan)
	if walled.Connected() {
		t.Fatal("40 dB wall did not partition the network")
	}
	// The design-support loop: the gap needs a relay whose links do not
	// cross the wall... which is impossible for a full wall, but a door
	// (shorter wall) lets a relay through.
	plan.Walls = []Wall{{A: geom.Point{X: 6, Y: -5}, B: geom.Point{X: 6, Y: 0.5}, LossDB: 40}}
	withDoor := NewFromRadioPlan(append(positions, geom.Point{X: 6, Y: 2}), plan)
	if !withDoor.Connected() {
		t.Fatal("relay behind the door gap did not restore connectivity")
	}
}

func TestRadioPlanNetworkSupportsRoutingAndFailure(t *testing.T) {
	// Default plan closes links up to ~27 m, so a 20 m pitch forms a
	// chain with adjacent-only links.
	positions := []geom.Point{
		{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 40, Y: 0}, {X: 60, Y: 0},
	}
	n := NewFromRadioPlan(positions, DefaultRadioPlan())
	if n.Linked(0, 2) {
		t.Fatal("40 m link should not close under the default plan")
	}
	if _, err := n.Send(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if totalCost(n) == 0 {
		t.Fatal("no cost recorded")
	}
	n.Fail(1)
	n.Fail(2)
	if _, err := n.Send(0, 3, 2); err == nil {
		t.Fatal("send succeeded across failed relays")
	}
}

func TestSegmentsIntersectCases(t *testing.T) {
	cases := []struct {
		a, b, c, d geom.Point
		want       bool
	}{
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 2, Y: -1}, geom.Point{X: 2, Y: 1}, true},  // crossing
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 5, Y: -1}, geom.Point{X: 5, Y: 1}, false}, // beyond end
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 6, Y: 2}, true},   // touching endpoint
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 1, Y: 0}, geom.Point{X: 3, Y: 0}, true},   // collinear overlap
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 0, Y: 1}, geom.Point{X: 4, Y: 1}, false},  // parallel
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 4}, geom.Point{X: 0, Y: 4}, geom.Point{X: 4, Y: 0}, true},   // diagonal X
	}
	for i, tc := range cases {
		if got := geom.SegmentsIntersect(tc.a, tc.b, tc.c, tc.d); got != tc.want {
			t.Fatalf("case %d: SegmentsIntersect = %v, want %v", i, got, tc.want)
		}
	}
}
