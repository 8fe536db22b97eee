package wsn

import (
	"math"
	"testing"
)

// TestLinkFaultModelDeterminism replays an interleaved attempt sequence on
// two models built from the same config and requires identical outcomes —
// the property every reproducible loss sweep rests on — and checks that a
// different seed actually changes the sequence.
func TestLinkFaultModelDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 42, DropProb: 0.3}
	attempts := func(m *LinkFaultModel) []bool {
		var out []bool
		for i := 0; i < 500; i++ {
			out = append(out, m.Attempt(i%4, (i+1)%4))
		}
		return out
	}
	a := attempts(NewLinkFaultModel(cfg))
	b := attempts(NewLinkFaultModel(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d differs between identically seeded models", i)
		}
	}

	other := attempts(NewLinkFaultModel(FaultConfig{Seed: 43, DropProb: 0.3}))
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical outcome sequences")
	}
}

// TestLinkFaultModelRates checks the empirical loss rate of both channel
// flavours against the configured rate: i.i.d. drops directly, and the
// Gilbert-Elliott parameters of GilbertElliottFor, whose stationary rate is
// constructed to equal p.
func TestLinkFaultModelRates(t *testing.T) {
	const n = 20000
	for _, p := range []float64{0.05, 0.1, 0.2} {
		for _, burst := range []bool{false, true} {
			cfg := FaultConfig{Seed: 7}
			if burst {
				cfg.Burst = GilbertElliottFor(p)
			} else {
				cfg.DropProb = p
			}
			m := NewLinkFaultModel(cfg)
			lost := 0
			for i := 0; i < n; i++ {
				if !m.Attempt(0, 1) {
					lost++
				}
			}
			got := float64(lost) / n
			if math.Abs(got-p) > 0.02 {
				t.Errorf("p=%v burst=%v: empirical loss %.4f", p, burst, got)
			}
		}
	}
}

// TestBrownoutWindow verifies that attempts touching a browned-out node
// fail for exactly the configured tick window, on both link directions,
// and that the loss draws of later attempts are unperturbed by the window.
func TestBrownoutWindow(t *testing.T) {
	m := NewLinkFaultModel(FaultConfig{
		Seed:      1,
		Brownouts: []Brownout{{Node: 1, Start: 10, End: 20}},
	})
	for i := 0; i < 40; i++ {
		from, to := 0, 1
		if i%2 == 1 {
			from, to = 1, 2
		}
		got := m.Attempt(from, to)
		want := i < 10 || i >= 20 // DropProb 0: only the window loses
		if got != want {
			t.Fatalf("attempt %d (tick %d): delivered=%v, want %v", i, i, got, want)
		}
	}

	// A browned-out attempt consumes no loss draw, so after the window the
	// link's loss process resumes exactly where it would have started: the
	// brownout model's attempt 5+i matches the reference's attempt i.
	ref := NewLinkFaultModel(FaultConfig{Seed: 9, DropProb: 0.5})
	bo := NewLinkFaultModel(FaultConfig{Seed: 9, DropProb: 0.5,
		Brownouts: []Brownout{{Node: 0, Start: 0, End: 5}}})
	var refOut, boOut []bool
	for i := 0; i < 100; i++ {
		refOut = append(refOut, ref.Attempt(0, 1))
		boOut = append(boOut, bo.Attempt(0, 1))
	}
	for i := 5; i < 100; i++ {
		if boOut[i] != refOut[i-5] {
			t.Fatalf("post-window attempt %d does not resume the loss process", i)
		}
	}
}

// TestSendReliableNilModelMatchesSend requires the disabled fault layer to
// be a strict no-op: identical counters and hop counts as Send.
func TestSendReliableNilModelMatchesSend(t *testing.T) {
	a := NewGrid(4, 4, 1)
	b := NewGrid(4, 4, 1)
	for from := 0; from < a.NumNodes(); from++ {
		for to := 0; to < a.NumNodes(); to++ {
			hops, err := a.Send(from, to, 3)
			if err != nil {
				t.Fatal(err)
			}
			d, err := b.SendReliable(from, to, 3, nil, DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			if !d.Delivered || d.Hops != hops || d.Retries != 0 || d.BackoffSlots != 0 {
				t.Fatalf("%d->%d: delivery %+v, Send hops %d", from, to, d, hops)
			}
		}
	}
	for i := range a.Nodes() {
		na, nb := a.Node(i), b.Node(i)
		if na.TxScalars != nb.TxScalars || na.RxScalars != nb.RxScalars {
			t.Fatalf("node %d counters diverge: Send %d/%d, SendReliable %d/%d",
				i, na.TxScalars, na.RxScalars, nb.TxScalars, nb.RxScalars)
		}
	}
}

// TestSendReliableChargesRetries pins the retry accounting on a single
// always-lossy hop: every attempt charges the transmitter, the receiver is
// never charged, and the backoff doubles up to its cap.
func TestSendReliableChargesRetries(t *testing.T) {
	n := NewGrid(1, 2, 1)
	m := NewLinkFaultModel(FaultConfig{Seed: 3, DropProb: 1})
	rp := RetryPolicy{MaxRetries: 4, BackoffBase: 1, BackoffCap: 4}
	d, err := n.SendReliable(0, 1, 10, m, rp)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delivered {
		t.Fatal("delivered through a DropProb=1 link")
	}
	if d.Attempts != 5 || d.Retries != 4 {
		t.Fatalf("attempts/retries = %d/%d, want 5/4", d.Attempts, d.Retries)
	}
	// Backoff after failed attempts 0..3 (none after the final attempt):
	// 1 + 2 + 4 + 4(capped) = 11 slots.
	if d.BackoffSlots != 11 {
		t.Fatalf("backoff slots = %d, want 11", d.BackoffSlots)
	}
	if tx := n.Node(0).TxScalars; tx != 50 {
		t.Fatalf("transmitter charged %d scalars, want 5 attempts × 10 = 50", tx)
	}
	if rx := n.Node(1).RxScalars; rx != 0 {
		t.Fatalf("receiver charged %d scalars for zero deliveries", rx)
	}

	// A lossless model delivers first try with Send-equal charges.
	n2 := NewGrid(1, 2, 1)
	d, err = n2.SendReliable(0, 1, 10, NewLinkFaultModel(FaultConfig{Seed: 3}), rp)
	if err != nil || !d.Delivered || d.Attempts != 1 {
		t.Fatalf("lossless delivery = %+v, err %v", d, err)
	}
	if n2.Node(0).TxScalars != 10 || n2.Node(1).RxScalars != 10 {
		t.Fatalf("lossless charges %d/%d, want 10/10", n2.Node(0).TxScalars, n2.Node(1).RxScalars)
	}
}

// TestSendReliableRetryPolicyClamp pins the attempt and energy accounting
// at MaxRetries ∈ {-1, 0, 1}. The regression: a negative MaxRetries used to
// skip the attempt loop entirely, returning Delivered=false with zero Tx
// charged — silently wrong energy bookkeeping that also contradicted the
// "0 disables retries" doc. Negatives now clamp to 0, so -1 and 0 behave
// identically: exactly one attempt, charged.
func TestSendReliableRetryPolicyClamp(t *testing.T) {
	cases := []struct {
		maxRetries   int
		wantAttempts int
	}{
		{-1, 1},
		{0, 1},
		{1, 2},
	}
	for _, tc := range cases {
		// Always-lossy link: every allowed attempt runs and fails.
		n := NewGrid(1, 2, 1)
		m := NewLinkFaultModel(FaultConfig{Seed: 9, DropProb: 1})
		d, err := n.SendReliable(0, 1, 10, m, RetryPolicy{MaxRetries: tc.maxRetries, BackoffBase: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d.Delivered {
			t.Fatalf("MaxRetries %d: delivered through a DropProb=1 link", tc.maxRetries)
		}
		if d.Attempts != tc.wantAttempts || d.Retries != tc.wantAttempts-1 {
			t.Errorf("MaxRetries %d: attempts/retries = %d/%d, want %d/%d",
				tc.maxRetries, d.Attempts, d.Retries, tc.wantAttempts, tc.wantAttempts-1)
		}
		if tx := n.Node(0).TxScalars; tx != 10*tc.wantAttempts {
			t.Errorf("MaxRetries %d: transmitter charged %d scalars, want %d attempts × 10 = %d",
				tc.maxRetries, tx, tc.wantAttempts, 10*tc.wantAttempts)
		}
		if rx := n.Node(1).RxScalars; rx != 0 {
			t.Errorf("MaxRetries %d: receiver charged %d scalars for zero deliveries", tc.maxRetries, rx)
		}

		// Lossless link: every policy delivers on the first attempt with
		// Send-equal charges, negatives included.
		n2 := NewGrid(1, 2, 1)
		d, err = n2.SendReliable(0, 1, 10, NewLinkFaultModel(FaultConfig{Seed: 9}), RetryPolicy{MaxRetries: tc.maxRetries})
		if err != nil || !d.Delivered || d.Attempts != 1 {
			t.Fatalf("MaxRetries %d lossless: delivery %+v, err %v", tc.maxRetries, d, err)
		}
		if n2.Node(0).TxScalars != 10 || n2.Node(1).RxScalars != 10 {
			t.Errorf("MaxRetries %d lossless: charges %d/%d, want 10/10",
				tc.maxRetries, n2.Node(0).TxScalars, n2.Node(1).RxScalars)
		}
	}
}

// TestSendReliableMultiHop checks that a mid-route retry exhaustion keeps
// the upstream charges (the energy was spent) and reports the partial hop
// count.
func TestSendReliableMultiHop(t *testing.T) {
	n := NewGrid(1, 3, 1) // 0 - 1 - 2 chain
	// Brownout node 2 forever: hop 0→1 succeeds, hop 1→2 exhausts retries.
	m := NewLinkFaultModel(FaultConfig{
		Seed:      5,
		Brownouts: []Brownout{{Node: 2, Start: 0, End: math.MaxUint64}},
	})
	rp := RetryPolicy{MaxRetries: 2, BackoffBase: 1, BackoffCap: 8}
	d, err := n.SendReliable(0, 2, 4, m, rp)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delivered || d.Hops != 1 {
		t.Fatalf("delivery %+v, want undelivered after 1 hop", d)
	}
	if d.Attempts != 1+3 {
		t.Fatalf("attempts = %d, want 1 (hop ok) + 3 (exhausted)", d.Attempts)
	}
	if n.Node(0).TxScalars != 4 || n.Node(1).RxScalars != 4 {
		t.Fatalf("first hop charges %d/%d, want 4/4", n.Node(0).TxScalars, n.Node(1).RxScalars)
	}
	if n.Node(1).TxScalars != 12 || n.Node(2).RxScalars != 0 {
		t.Fatalf("second hop charges %d tx / %d rx, want 12/0", n.Node(1).TxScalars, n.Node(2).RxScalars)
	}
}

// TestBrownoutWindowEdges pins the half-open [Start, End) semantics at its
// edges: an empty window (End == Start) never fires, adjacent windows cover
// a contiguous outage with no gap and no double-counted boundary tick, and
// End itself is always powered.
func TestBrownoutWindowEdges(t *testing.T) {
	m := NewLinkFaultModel(FaultConfig{
		Seed: 3,
		Brownouts: []Brownout{
			{Node: 0, Start: 5, End: 5},   // empty: must never fire
			{Node: 1, Start: 10, End: 15}, // adjacent pair: contiguous [10, 20)
			{Node: 1, Start: 15, End: 20},
		},
	})
	for tick := uint64(0); tick < 30; tick++ {
		if m.BrownedOut(0, tick) {
			t.Fatalf("empty window fired at tick %d", tick)
		}
		want := tick >= 10 && tick < 20
		if got := m.BrownedOut(1, tick); got != want {
			t.Fatalf("adjacent windows: BrownedOut(1, %d) = %v, want %v", tick, got, want)
		}
	}

	// The same edges drive Attempt: with DropProb 0, only ticks in [10, 20)
	// fail, and the boundary ticks 9 and 20 deliver.
	for tick := uint64(0); tick < 30; tick++ {
		got := m.Attempt(1, 2)
		want := tick < 10 || tick >= 20
		if got != want {
			t.Fatalf("Attempt at tick %d: delivered=%v, want %v", tick, got, want)
		}
	}
}

// TestAddBrownout checks windows registered after construction behave
// identically to configured ones — the path the harvest runtime uses — and
// that draw preservation holds: an added window fails attempts without
// consuming loss draws.
func TestAddBrownout(t *testing.T) {
	ref := NewLinkFaultModel(FaultConfig{Seed: 17, DropProb: 0.5})
	m := NewLinkFaultModel(FaultConfig{Seed: 17, DropProb: 0.5})
	m.AddBrownout(Brownout{Node: 4, Start: 0, End: 7})
	m.AddBrownout(Brownout{Node: 4, Start: 9, End: 9}) // empty: inert

	if !m.BrownedOut(4, 6) || m.BrownedOut(4, 7) || m.BrownedOut(4, 9) {
		t.Fatal("AddBrownout window boundaries wrong")
	}
	if m.BrownedOut(5, 3) {
		t.Fatal("AddBrownout leaked onto another node")
	}

	var refOut, out []bool
	for i := 0; i < 60; i++ {
		refOut = append(refOut, ref.Attempt(4, 5))
		out = append(out, m.Attempt(4, 5))
	}
	for i := 0; i < 7; i++ {
		if out[i] {
			t.Fatalf("attempt %d inside added window delivered", i)
		}
	}
	for i := 7; i < 60; i++ {
		if out[i] != refOut[i-7] {
			t.Fatalf("attempt %d after added window does not resume the loss process", i)
		}
	}
}
