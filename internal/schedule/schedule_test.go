package schedule

import (
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

func testPlan(t *testing.T, rows, cols int) ([]microdeep.Transfer, *wsn.Network) {
	t.Helper()
	s := rng.New(1)
	net := cnn.NewNetwork([]int{1, rows, cols},
		cnn.NewConv2D(1, 3, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(3*(rows/2)*(cols/2), 4, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(4, 2, s.Split("d2")),
	)
	g, err := microdeep.BuildGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	w := wsn.NewGrid(rows, cols, 1)
	a, err := microdeep.AssignBalanced(g, w, microdeep.DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := microdeep.Plan(g, a, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	return plan, w
}

func TestBuildValidates(t *testing.T) {
	plan, w := testPlan(t, 6, 6)
	for _, channels := range []int{1, 2, 4} {
		opts := Options{Channels: channels, InterferenceHops: 1}
		s, err := Build(plan, w, opts)
		if err != nil {
			t.Fatalf("channels=%d: %v", channels, err)
		}
		if err := s.Validate(plan, w, opts); err != nil {
			t.Fatalf("channels=%d: %v", channels, err)
		}
		if len(s.Entries) != len(plan) {
			t.Fatalf("channels=%d: %d entries for %d transfers", channels, len(s.Entries), len(plan))
		}
	}
}

func TestMoreChannelsNeverLengthen(t *testing.T) {
	plan, w := testPlan(t, 6, 6)
	prev := -1
	for _, channels := range []int{1, 2, 4, 8} {
		s, err := Build(plan, w, Options{Channels: channels, InterferenceHops: 1})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && s.Slots > prev {
			t.Fatalf("%d channels needs %d slots, more than fewer channels (%d)", channels, s.Slots, prev)
		}
		prev = s.Slots
	}
	// And multi-channel must actually help on a dense plan.
	one, err := Build(plan, w, Options{Channels: 1, InterferenceHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Build(plan, w, Options{Channels: 4, InterferenceHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if four.Slots >= one.Slots {
		t.Fatalf("4 channels (%d slots) no better than 1 (%d slots)", four.Slots, one.Slots)
	}
}

func TestStageCausality(t *testing.T) {
	plan, w := testPlan(t, 6, 6)
	s, err := Build(plan, w, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Max slot of each stage strictly below min slot of the next
	// scheduled stage.
	minSlot := map[int]int{}
	maxSlot := map[int]int{}
	for _, e := range s.Entries {
		st := e.Transfer.Stage
		if _, ok := minSlot[st]; !ok {
			minSlot[st] = e.Slot
			maxSlot[st] = e.Slot
			continue
		}
		if e.Slot < minSlot[st] {
			minSlot[st] = e.Slot
		}
		if e.Slot > maxSlot[st] {
			maxSlot[st] = e.Slot
		}
	}
	prevMax := -1
	for st := 0; st <= 10; st++ {
		if _, ok := minSlot[st]; !ok {
			continue
		}
		if minSlot[st] <= prevMax {
			t.Fatalf("stage %d starts at %d, before previous stage ended at %d", st, minSlot[st], prevMax)
		}
		prevMax = maxSlot[st]
	}
}

func TestInterferenceRangeMatters(t *testing.T) {
	plan, w := testPlan(t, 6, 6)
	tight, err := Build(plan, w, Options{Channels: 1, InterferenceHops: 0})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Build(plan, w, Options{Channels: 1, InterferenceHops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Slots < tight.Slots {
		t.Fatalf("larger interference range gave shorter schedule: %d vs %d", loose.Slots, tight.Slots)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	plan, w := testPlan(t, 4, 4)
	opts := defaultOptions()
	s, err := Build(plan, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Collapse everything into slot 0: must violate half-duplex (or
	// interference) somewhere.
	broken := &Schedule{Channels: s.Channels, Slots: 1, StageEnd: s.StageEnd}
	for _, e := range s.Entries {
		e.Slot = 0
		broken.Entries = append(broken.Entries, e)
	}
	if err := broken.Validate(plan, w, opts); err == nil {
		t.Fatal("corrupted schedule validated")
	}
	// Dropping an entry must be caught too.
	missing := &Schedule{Channels: s.Channels, Slots: s.Slots, Entries: s.Entries[1:], StageEnd: s.StageEnd}
	if err := missing.Validate(plan, w, opts); err == nil {
		t.Fatal("missing entry not caught")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	_, w := testPlan(t, 4, 4)
	if _, err := Build(nil, w, Options{Channels: 0}); err == nil {
		t.Fatal("zero channels accepted")
	}
	bad := []microdeep.Transfer{{From: 0, To: 15, Scalars: 1, Stage: 1}} // not a link on 4x4 grid
	if _, err := Build(bad, w, defaultOptions()); err == nil {
		t.Fatal("non-link transfer accepted")
	}
	self := []microdeep.Transfer{{From: 3, To: 3, Scalars: 1, Stage: 1}}
	if _, err := Build(self, w, defaultOptions()); err == nil {
		t.Fatal("self transfer accepted")
	}
}

func TestFeasibility(t *testing.T) {
	plan, w := testPlan(t, 6, 6)
	s, err := Build(plan, w, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slotSec := 0.001
	rep := s.Feasibility(slotSec, 1.0) // 1 sample/second
	if rep.RoundSec <= 0 || rep.MaxRateHz <= 0 {
		t.Fatalf("degenerate feasibility: %+v", rep)
	}
	if !rep.CycleOK {
		t.Fatalf("1 Hz infeasible with %d ms round", int(rep.RoundSec*1000))
	}
	fast := s.Feasibility(slotSec, 10*rep.MaxRateHz)
	if fast.CycleOK {
		t.Fatal("10x over max rate reported feasible")
	}
	empty := &Schedule{Channels: 1}
	if rep := empty.Feasibility(slotSec, 5); !rep.CycleOK {
		t.Fatal("empty schedule must always be feasible")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	plan, w := testPlan(t, 6, 6)
	a, err := Build(plan, w, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(plan, w, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Slots != b.Slots || len(a.Entries) != len(b.Entries) {
		t.Fatal("schedule not deterministic")
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

// defaultOptions returns single-channel operation with one-hop
// interference.
func defaultOptions() Options {
	return Options{Channels: 1, InterferenceHops: 1}
}
