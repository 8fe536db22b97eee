package wsn

import (
	"math"

	"zeiot/internal/rng"
)

// This file models what E8's binary node death cannot: marginal links. Real
// backscatter deployments fail soft — harvest-driven brownouts and lossy,
// bursty links dominate over clean node loss — so the fault layer provides
// a deterministic, seeded per-link loss process plus a reliable Send path
// (ack/retry with bounded exponential backoff) whose energy accounting
// charges every transmission attempt, retransmissions included. With a nil
// model the reliable path is a strict no-op relative to Send.

// GilbertElliott parameterizes the classic two-state burst-loss channel:
// the link alternates between a good and a bad state with per-attempt
// transition probabilities, and drops frames with a state-dependent
// probability. Bursts model the correlated fades a marginal backscatter
// link actually sees, which independent drops understate.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-attempt transition probabilities
	// good→bad and bad→good.
	PGoodBad, PBadGood float64
	// DropGood and DropBad are the frame-loss probabilities in each state.
	DropGood, DropBad float64
}

// GilbertElliottFor returns burst parameters whose stationary loss rate is
// p (exactly, for p ≤ 0.28; clamped above): short bad bursts (mean length
// 2 attempts) occupy 1/6 of the time with a 3.5p loss rate, the good state
// loses p/2.
func GilbertElliottFor(p float64) *GilbertElliott {
	return &GilbertElliott{
		PGoodBad: 0.1,
		PBadGood: 0.5,
		DropGood: p / 2,
		DropBad:  math.Min(1, 3.5*p),
	}
}

// Brownout is a per-node harvest-failure window: every transmission attempt
// whose transmitter or receiver is browned out fails. Windows are expressed
// in model ticks; the fault model's clock advances by one on every
// link-level attempt, so a window deterministically covers a contiguous run
// of the transmission sequence.
type Brownout struct {
	Node int
	// Start and End bound the window as the half-open tick interval
	// [Start, End).
	Start, End uint64
}

// FaultConfig configures a LinkFaultModel.
type FaultConfig struct {
	// Seed drives every per-link loss stream. The model is fully
	// deterministic given Seed and the per-link sequence of attempts: each
	// directed link owns an independent substream derived from (Seed, from,
	// to), so outcomes on one link never depend on traffic elsewhere.
	Seed uint64
	// DropProb is the independent per-attempt loss probability, used when
	// Burst is nil.
	DropProb float64
	// Burst, when non-nil, replaces the independent drops with a
	// Gilbert-Elliott burst-loss channel.
	Burst *GilbertElliott
	// Brownouts lists per-node harvest-failure windows.
	Brownouts []Brownout
}

// linkState is the per-directed-link loss process: its RNG substream and,
// under a burst model, the current Gilbert-Elliott state.
type linkState struct {
	stream *rng.Stream
	bad    bool
}

// LinkFaultModel is a deterministic, seeded link-loss process. It is not
// safe for concurrent use; the experiments drive it from their (serial)
// charging and evaluation loops.
type LinkFaultModel struct {
	cfg    FaultConfig
	links  map[uint64]*linkState
	clock  uint64
	byNode map[int][]Brownout
}

// NewLinkFaultModel returns a fault model for cfg.
func NewLinkFaultModel(cfg FaultConfig) *LinkFaultModel {
	m := &LinkFaultModel{cfg: cfg, links: make(map[uint64]*linkState)}
	if len(cfg.Brownouts) > 0 {
		m.byNode = make(map[int][]Brownout)
		for _, b := range cfg.Brownouts {
			m.byNode[b.Node] = append(m.byNode[b.Node], b)
		}
	}
	return m
}

// state returns (creating on first use) the loss process of the from→to
// link. The substream seed mixes the model seed with the link identity
// through one SplitMix64-style round so adjacent links decorrelate.
func (m *LinkFaultModel) state(from, to int) *linkState {
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	st := m.links[key]
	if st == nil {
		s := rng.New(m.cfg.Seed ^ (key*0x9e3779b97f4a7c15 + 0x94d049bb133111eb))
		s.Uint64()
		st = &linkState{stream: s}
		m.links[key] = st
	}
	return st
}

func (m *LinkFaultModel) brownedOut(node int, tick uint64) bool {
	for _, b := range m.byNode[node] {
		if tick >= b.Start && tick < b.End {
			return true
		}
	}
	return false
}

// BrownedOut reports whether node is inside a brownout window at tick.
// Callers with their own clock — the intermittent-compute runtime asks about
// *compute* ticks, not link-attempt ticks — use this to make a node's outages
// visible beyond the Attempt path.
func (m *LinkFaultModel) BrownedOut(node int, tick uint64) bool {
	return m.byNode != nil && m.brownedOut(node, tick)
}

// AddBrownout appends a brownout window after construction. The harvest
// runtime discovers windows by simulating each node's capacitor and then
// registers them here so the communication and compute layers agree on when
// a node is dark. Windows with End <= Start are inert (the half-open
// interval [Start, End) is empty) but tolerated.
func (m *LinkFaultModel) AddBrownout(b Brownout) {
	m.cfg.Brownouts = append(m.cfg.Brownouts, b)
	if m.byNode == nil {
		m.byNode = make(map[int][]Brownout)
	}
	m.byNode[b.Node] = append(m.byNode[b.Node], b)
}

// Attempt simulates one link-level transmission from→to, advancing the
// model clock and the link's loss process, and reports whether the frame
// arrived. Brownouts fail the attempt without consuming a loss draw, so a
// window changes only its own outcomes, not the draws of later attempts.
func (m *LinkFaultModel) Attempt(from, to int) bool {
	tick := m.clock
	m.clock++
	if m.byNode != nil && (m.brownedOut(from, tick) || m.brownedOut(to, tick)) {
		return false
	}
	st := m.state(from, to)
	if ge := m.cfg.Burst; ge != nil {
		if st.bad {
			if st.stream.Bool(ge.PBadGood) {
				st.bad = false
			}
		} else if st.stream.Bool(ge.PGoodBad) {
			st.bad = true
		}
		drop := ge.DropGood
		if st.bad {
			drop = ge.DropBad
		}
		return !st.stream.Bool(drop)
	}
	return !st.stream.Bool(m.cfg.DropProb)
}

// RetryPolicy bounds the reliable transport's per-hop retransmissions.
type RetryPolicy struct {
	// MaxRetries is the number of retransmissions allowed per hop after the
	// first attempt; 0 disables retries.
	MaxRetries int
	// BackoffBase is the backoff in slots after the first failed attempt;
	// it doubles per retry up to BackoffCap (≤ 0 means uncapped). Backoff
	// models latency, not energy: it accumulates in Delivery.BackoffSlots
	// and charges no scalars.
	BackoffBase int
	BackoffCap  int
}

// DefaultRetryPolicy returns the policy the experiments use: up to three
// retransmissions per hop with 1-slot base backoff capped at 8 slots.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, BackoffBase: 1, BackoffCap: 8}
}

// Delivery is the outcome of one reliable end-to-end transfer.
type Delivery struct {
	// Delivered reports whether the payload reached the destination. False
	// means some hop exhausted its retries; the scalars charged up to that
	// point stay charged (the energy was spent).
	Delivered bool
	// Hops counts the hops the payload successfully traversed.
	Hops int
	// Attempts counts link-level transmissions, retransmissions included.
	Attempts int
	// Retries counts the retransmissions alone.
	Retries int
	// BackoffSlots accumulates the backoff waits between retransmissions.
	BackoffSlots int
}

// SendReliable transfers scalars values from→to hop by hop under the link
// fault model: each hop is attempted up to 1+rp.MaxRetries times with
// exponential backoff, the transmitter's TxScalars is charged on every
// attempt (energy is spent whether or not the frame arrives), and the
// receiver's RxScalars only on success. A hop that exhausts its retries
// abandons the transfer with Delivered=false. A negative MaxRetries is
// clamped to 0 — "0 disables retries" is the policy floor; the unclamped
// value used to skip the attempt loop entirely and report an undelivered
// transfer with zero energy charged. With fm == nil the call charges
// exactly what Send charges and always delivers, so the fault layer
// disabled is a strict no-op.
func (n *Network) SendReliable(from, to, scalars int, fm *LinkFaultModel, rp RetryPolicy) (Delivery, error) {
	if scalars < 0 {
		panic("wsn: negative scalar count")
	}
	if rp.MaxRetries < 0 {
		rp.MaxRetries = 0
	}
	if from == to || scalars == 0 {
		return Delivery{Delivered: true}, nil
	}
	route, err := n.Route(from, to)
	if err != nil {
		return Delivery{}, err
	}
	d := Delivery{Delivered: true}
	for k := 0; k+1 < len(route); k++ {
		u, v := route[k], route[k+1]
		if fm == nil {
			n.nodes[u].TxScalars += scalars
			n.nodes[v].RxScalars += scalars
			d.Attempts++
			d.Hops++
			continue
		}
		hopOK := false
		backoff := rp.BackoffBase
		for attempt := 0; attempt <= rp.MaxRetries; attempt++ {
			n.nodes[u].TxScalars += scalars
			d.Attempts++
			if attempt > 0 {
				d.Retries++
			}
			if fm.Attempt(u, v) {
				n.nodes[v].RxScalars += scalars
				hopOK = true
				break
			}
			if attempt < rp.MaxRetries {
				d.BackoffSlots += backoff
				backoff *= 2
				if rp.BackoffCap > 0 && backoff > rp.BackoffCap {
					backoff = rp.BackoffCap
				}
			}
		}
		if !hopOK {
			d.Delivered = false
			return d, nil
		}
		d.Hops++
	}
	return d, nil
}
