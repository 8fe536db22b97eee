package schedule

import (
	"fmt"
	"reflect"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

func testPlan(t *testing.T, rows, cols int) ([]microdeep.Transfer, *wsn.Network) {
	t.Helper()
	return cnnPlan(t, rows, cols, 3, 4)
}

// cnnPlan deploys a conv–pool–dense–dense network with the given filter
// count and hidden width on a rows×cols grid (both even) and returns its
// transfer plan.
func cnnPlan(t *testing.T, rows, cols, filters, hidden int) ([]microdeep.Transfer, *wsn.Network) {
	t.Helper()
	s := rng.New(1)
	net := cnn.NewNetwork([]int{1, rows, cols},
		cnn.NewConv2D(1, filters, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(filters*(rows/2)*(cols/2), hidden, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(hidden, 2, s.Split("d2")),
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

// refBuild is the first-fit scheduler Build must reproduce entry for entry:
// transfers of one stage in plan order, each in the first slot where
// neither endpoint is busy on any channel and then the first channel of
// that slot it does not collide on. Every candidate slot scans all of its
// placed transmissions.
func refBuild(plan []microdeep.Transfer, w *wsn.Network, opts Options) (*Schedule, error) {
	if opts.Channels < 1 {
		return nil, fmt.Errorf("schedule: need at least one channel, got %d", opts.Channels)
	}
	if opts.InterferenceHops < 0 {
		return nil, fmt.Errorf("schedule: negative interference range")
	}
	s := &Schedule{Channels: opts.Channels, StageEnd: make(map[int]int)}
	stages := make(map[int][]microdeep.Transfer)
	maxStage := 0
	for _, tr := range plan {
		if tr.From == tr.To {
			return nil, fmt.Errorf("schedule: self transfer at node %d", tr.From)
		}
		if !w.Linked(tr.From, tr.To) {
			return nil, fmt.Errorf("schedule: transfer %d->%d is not a link", tr.From, tr.To)
		}
		stages[tr.Stage] = append(stages[tr.Stage], tr)
		if tr.Stage > maxStage {
			maxStage = tr.Stage
		}
	}
	type refPlaced struct{ from, to int }
	near := func(a, b int) bool {
		h := w.Hops(a, b)
		return h >= 0 && h <= opts.InterferenceHops
	}
	base := 0
	for stage := 0; stage <= maxStage; stage++ {
		transfers := stages[stage]
		if len(transfers) == 0 {
			continue
		}
		slotUse := []map[int][]refPlaced{}
		for _, tr := range transfers {
			assigned := false
			for slot := 0; !assigned; slot++ {
				if slot == len(slotUse) {
					slotUse = append(slotUse, make(map[int][]refPlaced))
				}
				busy := false
				for _, chEntries := range slotUse[slot] {
					for _, p := range chEntries {
						if p.from == tr.From || p.to == tr.From || p.from == tr.To || p.to == tr.To {
							busy = true
						}
					}
				}
				if busy {
					continue
				}
				for ch := 0; ch < opts.Channels; ch++ {
					collides := false
					for _, p := range slotUse[slot][ch] {
						if near(tr.From, p.to) || near(p.from, tr.To) {
							collides = true
						}
					}
					if collides {
						continue
					}
					slotUse[slot][ch] = append(slotUse[slot][ch], refPlaced{tr.From, tr.To})
					s.Entries = append(s.Entries, Entry{Transfer: tr, Slot: base + slot, Channel: ch})
					assigned = true
					break
				}
			}
		}
		base += len(slotUse)
		s.StageEnd[stage] = base
	}
	s.Slots = base
	return s, nil
}

// checkMatchesRef fails t unless Build and refBuild agree on plan, entry
// for entry, and Build's schedule validates.
func checkMatchesRef(t *testing.T, plan []microdeep.Transfer, w *wsn.Network, opts Options) {
	t.Helper()
	got, err := Build(plan, w, opts)
	want, refErr := refBuild(plan, w, opts)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%+v: Build error %v, reference error %v", opts, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: Build differs from the reference:\n got  %d slots, stage ends %v, entries %v\n want %d slots, stage ends %v, entries %v",
			opts, got.Slots, got.StageEnd, got.Entries, want.Slots, want.StageEnd, want.Entries)
	}
	if err := got.Validate(plan, w, opts); err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
}

// TestBuildMatchesRef runs random MicroDeep plans on grids of several sizes
// through Build and refBuild with 1–8 channels and interference ranges
// 0–2: the entries (in order), the slot count and the stage ends must be
// identical. TestPropertyRandomPlansValidate does the same for random link
// plans.
func TestBuildMatchesRef(t *testing.T) {
	stream := rng.New(28)
	sizes := [][2]int{{4, 4}, {4, 6}, {6, 6}, {6, 8}, {8, 8}}
	for i := 0; i < 40; i++ {
		size := sizes[stream.Intn(len(sizes))]
		plan, w := cnnPlan(t, size[0], size[1], 1+stream.Intn(4), 2+stream.Intn(5))
		opts := Options{Channels: 1 + stream.Intn(8), InterferenceHops: stream.Intn(3)}
		checkMatchesRef(t, plan, w, opts)
	}
	checkMatchesRef(t, nil, wsn.NewGrid(3, 3, 1), defaultOptions())
}

// pickNeighbor returns the k-th neighbour of node (modulo its degree).
func pickNeighbor(w *wsn.Network, node, k int) (int, bool) {
	var neighbors []int
	for j := range w.NumNodes() {
		if w.Linked(node, j) {
			neighbors = append(neighbors, j)
		}
	}
	if len(neighbors) == 0 {
		return 0, false
	}
	return neighbors[k%len(neighbors)], true
}

// FuzzBuildMatchesRef decodes fuzz bytes into a plan on a grid of at most
// 5×5 nodes (bytes 0–3: rows, columns, channels, interference range; then
// three bytes per transfer: sender, neighbour index, stage and size) and
// requires Build to equal refBuild and to validate. Plans stop at 256
// transfers, since both builders take time quadratic in the plan.
func FuzzBuildMatchesRef(f *testing.F) {
	// 2×2 grid, two channels, no interference: 0→1 then 1→3 must not
	// share a slot, since node 1 receives in the first.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{2, 2, 0, 1, 0, 0, 0, 1, 1, 0, 2, 0, 5})
	f.Add([]byte{3, 3, 1, 2, 4, 0, 1, 4, 1, 1, 4, 2, 1, 4, 3, 1, 0, 0, 2, 8, 1, 2})
	f.Add([]byte{1, 2, 7, 0, 9, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w := wsn.NewGrid(2+int(data[0]%4), 2+int(data[1]%4), 1)
		opts := Options{Channels: 1 + int(data[2]%8), InterferenceHops: int(data[3] % 3)}
		var plan []microdeep.Transfer
		for rest := data[4:]; len(rest) >= 3 && len(plan) < 256; rest = rest[3:] {
			from := int(rest[0]) % w.NumNodes()
			to, ok := pickNeighbor(w, from, int(rest[1]))
			if !ok {
				continue
			}
			plan = append(plan, microdeep.Transfer{From: from, To: to, Scalars: 1 + int(rest[2]/4%6), Stage: int(rest[2] % 4)})
		}
		checkMatchesRef(t, plan, w, opts)
	})
}
