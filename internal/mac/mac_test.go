package mac

import (
	"testing"
	"time"
)

func TestScheduledDeliversUnderAmpleTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	m, err := Run(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.BSGenerated < 900 {
		t.Fatalf("BSGenerated = %d, want ~1000", m.BSGenerated)
	}
	if r := m.BSDeliveryRatio(); r < 0.99 {
		t.Fatalf("scheduled delivery ratio = %.3f", r)
	}
	if m.BSCollided != 0 {
		t.Fatalf("scheduled mode collided %d times", m.BSCollided)
	}
	if m.WLANRetries != 0 {
		t.Fatalf("scheduled mode caused %d WLAN retries", m.WLANRetries)
	}
}

func TestAlohaCollidesAndCorrupts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeAloha
	cfg.NumDevices = 30
	cfg.WLANRate = 60 // scarce frames → riders pile up
	cfg.Seed = 2
	m, err := Run(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.BSCollided == 0 {
		t.Fatal("no collisions despite 30 uncoordinated devices")
	}
	if m.WLANRetries == 0 {
		t.Fatal("no WLAN corruption despite uncoordinated riders")
	}
	if r := m.BSDeliveryRatio(); r > 0.8 {
		t.Fatalf("aloha delivery ratio suspiciously high: %.3f", r)
	}
}

func TestScheduledBeatsAloha(t *testing.T) {
	base := DefaultConfig()
	base.NumDevices = 20
	base.WLANRate = 100
	base.Seed = 3

	sched := base
	sched.Mode = ModeScheduled
	ms, err := Run(sched, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	aloha := base
	aloha.Mode = ModeAloha
	ma, err := Run(aloha, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ms.BSDeliveryRatio() <= ma.BSDeliveryRatio() {
		t.Fatalf("scheduled %.3f <= aloha %.3f", ms.BSDeliveryRatio(), ma.BSDeliveryRatio())
	}
	if ms.MeanWLANDelay > ma.MeanWLANDelay {
		t.Fatalf("scheduled WLAN delay %v > aloha %v", ms.MeanWLANDelay, ma.MeanWLANDelay)
	}
}

func TestDummyPacketsRescueIdleChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WLANRate = 0 // dead-quiet WLAN
	cfg.Seed = 4
	m, err := Run(cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.DummyFrames == 0 {
		t.Fatal("no dummy frames on an idle channel")
	}
	if r := m.BSDeliveryRatio(); r < 0.95 {
		t.Fatalf("delivery ratio with dummies = %.3f", r)
	}
}

func TestDisableDummyFailsOnIdleChannel(t *testing.T) {
	// The paper's stated failure mode: backscatter error rate rises when
	// there is not enough WLAN traffic. Without dummy packets and with no
	// WLAN frames, every reading must miss its deadline.
	cfg := DefaultConfig()
	cfg.WLANRate = 0
	cfg.DisableDummy = true
	cfg.Seed = 5
	m, err := Run(cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.DummyFrames != 0 {
		t.Fatal("dummy frames despite DisableDummy")
	}
	if m.BSDelivered != 0 {
		t.Fatalf("delivered %d packets with no carrier at all", m.BSDelivered)
	}
	if m.BSMissed == 0 {
		t.Fatal("no missed readings recorded")
	}
}

func TestDummiesShrinkWithTraffic(t *testing.T) {
	run := func(rate float64) Metrics {
		cfg := DefaultConfig()
		cfg.WLANRate = rate
		cfg.Seed = 6
		m, err := Run(cfg, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	quiet := run(5)
	busy := run(500)
	if busy.DummyFrames >= quiet.DummyFrames {
		t.Fatalf("dummies busy=%d >= quiet=%d", busy.DummyFrames, quiet.DummyFrames)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeAloha
	cfg.Seed = 7
	a, err := Run(cfg, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WLANRate = 2000 // saturating
	cfg.Seed = 8
	m, err := Run(cfg, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChannelUtilization < 0.9 || m.ChannelUtilization > 1.01 {
		t.Fatalf("saturated utilization = %v", m.ChannelUtilization)
	}
}

func TestThroughputMatchesOfferedLoadWhenUnderloaded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WLANRate = 100
	cfg.Seed = 9
	m, err := Run(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 100 frames/s × 12000 bits = 1.2 Mbps offered; all should deliver.
	if float64(m.WLANDelivered) < 0.99*float64(m.WLANOffered) {
		t.Fatalf("underloaded WLAN delivered %d of %d frames", m.WLANDelivered, m.WLANOffered)
	}
	if m.WLANThroughputBps < 1.0e6 || m.WLANThroughputBps > 1.4e6 {
		t.Fatalf("throughput = %v bps", m.WLANThroughputBps)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Period = 0
	if _, err := Run(bad, time.Second); err == nil {
		t.Fatal("zero period accepted")
	}
	bad = DefaultConfig()
	bad.Mode = Mode(9)
	if _, err := Run(bad, time.Second); err == nil {
		t.Fatal("unknown mode accepted")
	}
	bad = DefaultConfig()
	bad.NumDevices = -1
	if _, err := Run(bad, time.Second); err == nil {
		t.Fatal("negative devices accepted")
	}
}

func TestZeroDevices(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDevices = 0
	cfg.Seed = 10
	m, err := Run(cfg, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.BSGenerated != 0 || m.BSDeliveryRatio() != 1 {
		t.Fatalf("zero-device metrics: %+v", m)
	}
	if float64(m.WLANDelivered) < 0.99*float64(m.WLANOffered) {
		t.Fatalf("WLAN alone should deliver: %d of %d frames", m.WLANDelivered, m.WLANOffered)
	}
}

func TestHeterogeneousCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDevices = 9
	cfg.Periods = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	cfg.WLANRate = 300
	cfg.Seed = 11
	m, err := Run(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Expected generation: 3 devices per period class over 10 s:
	// 3*(200 + 100 + 50) = 1050, minus in-flight tails.
	if m.BSGenerated < 950 || m.BSGenerated > 1060 {
		t.Fatalf("generated = %d, want ~1050", m.BSGenerated)
	}
	if r := m.BSDeliveryRatio(); r < 0.99 {
		t.Fatalf("heterogeneous delivery ratio = %.3f", r)
	}
}

func TestHeterogeneousCyclesValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Periods = []time.Duration{0}
	if _, err := Run(cfg, time.Second); err == nil {
		t.Fatal("zero heterogeneous period accepted")
	}
}
