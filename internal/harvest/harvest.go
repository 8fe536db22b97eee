// Package harvest models per-node ambient energy harvesting for the
// intermittent-power runtime: seeded harvest traces (RF, solar, thermal),
// capacitor state with turn-on/brown-out hysteresis, and a tick-driven node
// account that funds compute work.
//
// Every piece of state is an exported field, so a checkpointed simulation
// can serialize every node's charge level, and the trace is a pure function
// of (seed, node, tick) — no stored generator state — so resuming a killed
// run needs only the tick counter and the capacitor charge, and every
// node's power sequence is independent of how many other nodes exist or in
// what order they are stepped.
package harvest

import (
	"fmt"
	"math"

	"zeiot/internal/rng"
)

// Profile selects the shape of a node's ambient power over time.
type Profile int

// Harvest profiles. The mean of PowerW over a long horizon is MeanW for
// every profile; they differ in burstiness, which is what decides whether a
// capacitor rides through or browns out.
const (
	// ProfileRF is bursty: power arrives in short random bursts (a reader
	// or WiFi transmitter duty-cycling nearby) separated by dead air.
	ProfileRF Profile = iota + 1
	// ProfileSolar is a slow periodic swell (indoor light over a work
	// cycle) with small flicker, including dark spans of zero harvest.
	ProfileSolar
	// ProfileThermal is near-constant with small jitter — a thermal
	// gradient varies slowly and never vanishes.
	ProfileThermal
)

// String returns the profile's flag-level name.
func (p Profile) String() string {
	switch p {
	case ProfileRF:
		return "rf"
	case ProfileSolar:
		return "solar"
	case ProfileThermal:
		return "thermal"
	default:
		return fmt.Sprintf("profile(%d)", int(p))
	}
}

// ProfileByName parses a profile name as used by the -harvestprofile flag.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "rf":
		return ProfileRF, nil
	case "solar":
		return ProfileSolar, nil
	case "thermal":
		return ProfileThermal, nil
	default:
		return 0, fmt.Errorf("harvest: unknown profile %q (want rf, solar, or thermal)", name)
	}
}

// Trace is a deterministic ambient-power sequence for one node. PowerW is a
// pure function of the fields and the tick — a Trace carries no generator
// state, which is what makes harvest-driven runs checkpointable without
// serializing any randomness.
type Trace struct {
	Seed    uint64
	Node    int
	Profile Profile
	// MeanW is the long-run mean harvest power in watts.
	MeanW float64
}

// u01 hashes (seed, node, tick, salt) to a uniform variate in [0, 1).
func (t Trace) u01(tick uint64, salt uint64) float64 {
	x := rng.Mix64(t.Seed ^ rng.Mix64(uint64(t.Node)+0x9e3779b97f4a7c15) ^ rng.Mix64(tick+salt))
	return float64(x>>11) / (1 << 53)
}

// RF burst geometry: bursts are burstLen ticks long and begin a slot with
// probability rfDuty, giving power 1/rfDuty times the mean inside a burst.
const (
	rfBurstLen = 8
	rfDuty     = 0.25
)

// Solar period in ticks (at the runtime's 10 ms tick: one minute of
// simulated time per light cycle — compressed "diurnal" cycling).
const solarPeriodTicks = 6000

// PowerW returns the ambient power available at the given tick, in watts.
// Identical (Seed, Node, Profile, MeanW, tick) always yields the identical
// power, regardless of call order or history.
func (t Trace) PowerW(tick uint64) float64 {
	if t.MeanW <= 0 {
		return 0
	}
	switch t.Profile {
	case ProfileRF:
		// One draw per burst slot decides whether the slot is live; a
		// second per-tick draw adds fast fading within the burst.
		slot := tick / rfBurstLen
		if t.u01(slot, 0x5f) >= rfDuty {
			return 0
		}
		fade := 0.5 + t.u01(tick, 0xfa) // mean 1.0
		return t.MeanW / rfDuty * fade
	case ProfileSolar:
		// Positive half-sine over the period (mean 1/pi of peak), dark the
		// other half, with ±20% flicker.
		phase := float64(tick%solarPeriodTicks) / solarPeriodTicks
		s := math.Sin(2 * math.Pi * phase)
		if s <= 0 {
			return 0
		}
		flicker := 0.8 + 0.4*t.u01(tick, 0x50) // mean 1.0
		return t.MeanW * math.Pi * s * flicker
	case ProfileThermal:
		jitter := 0.9 + 0.2*t.u01(tick, 0x7e) // mean 1.0
		return t.MeanW * jitter
	default:
		return 0
	}
}

// Capacitor is an energy store with turn-on/brown-out hysteresis, the
// standard intermittent-computing power model, with every field exported so
// the state checkpoints through encoding/gob. Invariants:
// 0 <= OffJ < OnJ <= CapJ.
type Capacitor struct {
	// CapJ is the usable capacity in joules.
	CapJ float64
	// OnJ and OffJ are the turn-on and brown-out thresholds.
	OnJ, OffJ float64
	// StoredJ is the current charge; On is the power state.
	StoredJ float64
	On      bool
}

// Charge adds harvested energy (clamped at capacity) and turns the device
// on once the store reaches OnJ. It returns the energy actually stored.
func (c *Capacitor) Charge(j float64) float64 {
	if j < 0 {
		panic("harvest: negative charge")
	}
	stored := math.Min(c.CapJ, c.StoredJ+j) - c.StoredJ
	c.StoredJ += stored
	if c.StoredJ >= c.OnJ {
		c.On = true
	}
	return stored
}

// Draw spends j joules. It returns false — drawing nothing — if the device
// is off, and browns the device out (returning false) if the draw would push
// the store below OffJ: starting work without the energy to finish it is how
// intermittent devices die, so a refused draw costs the on-state and the
// device must recharge past OnJ.
func (c *Capacitor) Draw(j float64) bool {
	if j < 0 {
		panic("harvest: negative draw")
	}
	if !c.On {
		return false
	}
	if c.StoredJ-j < c.OffJ {
		c.On = false
		return false
	}
	c.StoredJ -= j
	return true
}

// Node couples one trace with one capacitor and the accounting the
// experiments report: duty cycle, brownout count, and the energy ledger.
// All fields are exported; a Node round-trips through gob, which together
// with the stateless trace makes the whole harvest layer checkpointable.
type Node struct {
	Trace Trace
	Cap   Capacitor
	// TickSeconds is the simulation tick length.
	TickSeconds float64
	// Tick is the next tick to execute (ticks completed so far).
	Tick uint64

	// IdleDrawJ is the leakage/quiescent energy burned per tick while on —
	// without it a capacitor above OnJ could never brown out between tasks.
	IdleDrawJ float64

	HarvestedJ  float64
	SpentJ      float64
	ActiveTicks uint64
	Brownouts   uint64
}

// StepTick advances the node one tick: harvest according to the trace, then
// burn the idle draw if powered. It returns whether the node is on after the
// tick. Work done during the tick goes through TrySpend.
func (n *Node) StepTick() bool {
	wasOn := n.Cap.On
	n.HarvestedJ += n.Cap.Charge(n.Trace.PowerW(n.Tick) * n.TickSeconds)
	n.Tick++
	if n.Cap.On {
		if n.Cap.Draw(n.IdleDrawJ) {
			n.SpentJ += n.IdleDrawJ
		}
	}
	if n.Cap.On {
		n.ActiveTicks++
	} else if wasOn {
		n.Brownouts++
	}
	return n.Cap.On
}

// TrySpend draws task energy from the capacitor, recording a brownout when
// the draw kills the node. It reports whether the task ran.
func (n *Node) TrySpend(j float64) bool {
	wasOn := n.Cap.On
	if n.Cap.Draw(j) {
		n.SpentJ += j
		return true
	}
	if wasOn && !n.Cap.On {
		n.Brownouts++
	}
	return false
}

// DutyCycle returns the fraction of executed ticks the node was powered.
func (n *Node) DutyCycle() float64 {
	if n.Tick == 0 {
		return 0
	}
	return float64(n.ActiveTicks) / float64(n.Tick)
}
