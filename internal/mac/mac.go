// Package mac simulates the coexistence of IEEE 802.11-style WLAN traffic
// and ambient backscatter devices on one channel, reproducing the
// backscatter MAC protocol of ref. [64] (§IV.A of the paper).
//
// Two MAC modes are modelled:
//
//   - ModeScheduled — the proposed protocol: every IoT device registers its
//     data-acquisition cycle with the access point; the AP picks one
//     pending device per WLAN frame (earliest deadline first) and, when a
//     deadline approaches with no WLAN traffic to ride on, transmits a
//     dummy packet purely to give the tag a carrier. The full-duplex AP
//     decodes the backscatter cleanly, so WLAN frames are unharmed.
//
//   - ModeAloha — the uncoordinated baseline: a device backscatters on the
//     next WLAN frame after its reading is generated, without coordination.
//     Two riders on the same frame collide (both readings lost), any rider
//     corrupts the host WLAN frame with CorruptProb (forcing a WLAN
//     retransmission), and a reading with no frame before its deadline is
//     missed.
//
// The simulation is event-driven on sim.Kernel and fully deterministic for
// a given seed.
package mac

import (
	"fmt"
	"time"

	"zeiot/internal/rng"
	"zeiot/internal/sim"
)

// Mode selects the backscatter MAC.
type Mode int

// MAC modes.
const (
	ModeScheduled Mode = iota + 1
	ModeAloha
)

func (m Mode) String() string {
	switch m {
	case ModeScheduled:
		return "scheduled"
	case ModeAloha:
		return "aloha"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes one coexistence simulation.
type Config struct {
	Mode Mode
	// NumDevices is the number of backscatter IoT devices.
	NumDevices int
	// Period is each device's data-acquisition cycle (the registered
	// cycle of ref. [64]); device i's phase is staggered deterministically.
	Period time.Duration
	// Periods optionally gives heterogeneous cycles — the paper's point
	// that cycles "vary depending on target applications". Device i uses
	// Periods[i%len(Periods)]; empty means every device uses Period.
	Periods []time.Duration
	// WLANRate is the mean arrival rate of WLAN frames in frames/second
	// (Poisson).
	WLANRate float64
	// FrameDur is the airtime of one WLAN frame (also the airtime of a
	// dummy frame and the carrier window a backscatter packet needs).
	FrameDur time.Duration
	// FrameBits is the payload of one WLAN frame, for throughput.
	FrameBits int
	// CorruptProb is the probability an uncoordinated backscatter rider
	// corrupts its host WLAN frame (ModeAloha only).
	CorruptProb float64
	// DisableDummy turns off dummy-packet insertion in ModeScheduled —
	// the ablation showing the paper's low-traffic failure mode.
	DisableDummy bool
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns a config matching the paper's ZigBee-grade
// backscatter testbed: 1 ms frames, 10 devices on a 100 ms cycle.
func DefaultConfig() Config {
	return Config{
		Mode:        ModeScheduled,
		NumDevices:  10,
		Period:      100 * time.Millisecond,
		WLANRate:    200,
		FrameDur:    time.Millisecond,
		FrameBits:   12000,
		CorruptProb: 0.5,
	}
}

// Metrics summarizes one simulation run.
type Metrics struct {
	// WLAN side.
	WLANOffered        int // frames generated
	WLANDelivered      int // frames delivered (after retries)
	WLANRetries        int // retransmissions caused by backscatter corruption
	DummyFrames        int // dummy frames the AP inserted
	WLANThroughputBps  float64
	MeanWLANDelay      time.Duration // enqueue→delivery
	ChannelUtilization float64

	// Backscatter side.
	BSGenerated int // readings produced by devices
	BSDelivered int
	BSCollided  int // lost to rider collisions (ModeAloha)
	BSMissed    int // deadline passed without any carrier
}

// BSDeliveryRatio returns delivered/generated (1 when nothing generated).
func (m Metrics) BSDeliveryRatio() float64 {
	if m.BSGenerated == 0 {
		return 1
	}
	return float64(m.BSDelivered) / float64(m.BSGenerated)
}

type frame struct {
	enqueued time.Duration
	dummy    bool
	// dummyFor is the device a dummy frame was inserted for.
	dummyFor int
	retries  int
}

type device struct {
	id       int
	period   time.Duration
	pending  bool
	deadline time.Duration
}

type simulator struct {
	cfg     Config
	k       *sim.Kernel
	stream  *rng.Stream
	queue   []*frame
	busy    bool
	devices []*device
	m       Metrics
	busyFor time.Duration // accumulated airtime
	horizon time.Duration
}

// Run simulates the channel for the given duration and returns metrics.
func Run(cfg Config, duration time.Duration) (Metrics, error) {
	if cfg.NumDevices < 0 || cfg.Period <= 0 || cfg.FrameDur <= 0 || cfg.WLANRate < 0 {
		return Metrics{}, fmt.Errorf("mac: invalid config %+v", cfg)
	}
	if cfg.Mode != ModeScheduled && cfg.Mode != ModeAloha {
		return Metrics{}, fmt.Errorf("mac: unknown mode %v", cfg.Mode)
	}
	s := &simulator{
		cfg:     cfg,
		k:       sim.New(),
		stream:  rng.New(cfg.Seed),
		horizon: duration,
	}
	for i := 0; i < cfg.NumDevices; i++ {
		period := cfg.Period
		if len(cfg.Periods) > 0 {
			period = cfg.Periods[i%len(cfg.Periods)]
			if period <= 0 {
				return Metrics{}, fmt.Errorf("mac: non-positive period for device %d", i)
			}
		}
		s.devices = append(s.devices, &device{id: i, period: period})
		// Stagger generation phases across the period.
		phase := time.Duration(int64(period) * int64(i) / int64(maxInt(cfg.NumDevices, 1)))
		s.scheduleReading(s.devices[i], phase)
	}
	if cfg.WLANRate > 0 {
		s.k.After(s.nextArrival(), s.wlanArrival)
	}
	s.k.Run(duration)
	s.finalize(duration)
	return s.m, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (s *simulator) nextArrival() time.Duration {
	return time.Duration(s.stream.Exp(s.cfg.WLANRate) * float64(time.Second))
}

func (s *simulator) wlanArrival() {
	s.m.WLANOffered++
	s.enqueue(&frame{enqueued: s.k.Now()})
	s.k.After(s.nextArrival(), s.wlanArrival)
}

func (s *simulator) enqueue(f *frame) {
	s.queue = append(s.queue, f)
	if !s.busy {
		s.startNext()
	}
}

func (s *simulator) startNext() {
	if s.busy || len(s.queue) == 0 {
		return
	}
	f := s.queue[0]
	s.queue = s.queue[1:]
	s.busy = true
	s.busyFor += s.cfg.FrameDur
	riders := s.pickRiders(f)
	s.k.After(s.cfg.FrameDur, func() { s.finishFrame(f, riders) })
}

// pickRiders decides which pending devices backscatter on this frame.
func (s *simulator) pickRiders(f *frame) []*device {
	switch s.cfg.Mode {
	case ModeScheduled:
		if f.dummy {
			// A dummy frame carries exactly the device it was sent for.
			d := s.devices[f.dummyFor]
			if d.pending {
				return []*device{d}
			}
			return nil
		}
		// Earliest-deadline-first over pending devices.
		var best *device
		for _, d := range s.devices {
			if !d.pending {
				continue
			}
			if best == nil || d.deadline < best.deadline {
				best = d
			}
		}
		if best == nil {
			return nil
		}
		return []*device{best}
	case ModeAloha:
		var riders []*device
		for _, d := range s.devices {
			if d.pending {
				riders = append(riders, d)
			}
		}
		return riders
	default:
		panic("mac: unreachable mode")
	}
}

func (s *simulator) finishFrame(f *frame, riders []*device) {
	s.busy = false
	switch {
	case len(riders) == 1:
		riders[0].pending = false
		s.m.BSDelivered++
	case len(riders) > 1:
		// Collision: every rider's reading is lost.
		for _, d := range riders {
			d.pending = false
			s.m.BSCollided++
		}
	}
	corrupted := false
	if s.cfg.Mode == ModeAloha && len(riders) > 0 && !f.dummy {
		p := 1.0
		for range riders {
			p *= 1 - s.cfg.CorruptProb
		}
		corrupted = s.stream.Bool(1 - p)
	}
	if corrupted {
		s.m.WLANRetries++
		f.retries++
		s.queue = append([]*frame{f}, s.queue...)
	} else if !f.dummy {
		s.m.WLANDelivered++
		s.m.MeanWLANDelay += s.k.Now() - f.enqueued // finalized later
	}
	s.startNext()
}

func (s *simulator) scheduleReading(d *device, at time.Duration) {
	s.k.At(at, func() {
		// Generating a new reading while the previous one is still pending
		// means the previous one missed its deadline.
		if d.pending {
			d.pending = false
			s.m.BSMissed++
		}
		s.m.BSGenerated++
		d.pending = true
		d.deadline = s.k.Now() + d.period
		if s.cfg.Mode == ModeScheduled && !s.cfg.DisableDummy {
			// Guard slot: if the reading is still pending close to its
			// deadline, insert a dummy frame to provide a carrier.
			guard := d.period - 2*s.cfg.FrameDur
			if guard < 0 {
				guard = 0
			}
			s.k.After(guard, func() {
				if d.pending && s.k.Now()+s.cfg.FrameDur <= s.horizon {
					s.m.DummyFrames++
					s.enqueue(&frame{enqueued: s.k.Now(), dummy: true, dummyFor: d.id})
				}
			})
		}
		next := s.k.Now() + d.period
		if next <= s.horizon {
			s.scheduleReading(d, next)
		}
	})
}

func (s *simulator) finalize(duration time.Duration) {
	if s.m.WLANDelivered > 0 {
		s.m.MeanWLANDelay /= time.Duration(s.m.WLANDelivered)
	}
	if duration > 0 {
		s.m.WLANThroughputBps = float64(s.m.WLANDelivered*s.cfg.FrameBits) / duration.Seconds()
		s.m.ChannelUtilization = float64(s.busyFor) / float64(duration)
	}
	// Readings still pending at the horizon are neither delivered nor
	// missed; exclude them from the generated count so ratios compare
	// completed cycles only.
	for _, d := range s.devices {
		if d.pending {
			s.m.BSGenerated--
		}
	}
}
