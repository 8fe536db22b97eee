package radio

import (
	"math"
	"math/cmplx"
	"testing"

	"zeiot/internal/geom"
	"zeiot/internal/rng"
)

func TestDBmConversionsRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-90, -30, 0, 20} {
		mw := DBmToMilliwatts(dbm)
		back := MilliwattsToDBm(mw)
		if math.Abs(back-dbm) > 1e-9 {
			t.Fatalf("round trip %v -> %v", dbm, back)
		}
	}
	if DBmToMilliwatts(0) != 1 {
		t.Fatal("0 dBm != 1 mW")
	}
	if !math.IsInf(MilliwattsToDBm(0), -1) {
		t.Fatal("0 mW should be -inf dBm")
	}
}

func TestFreeSpacePathLoss(t *testing.T) {
	// At 2.4 GHz and 1 m, FSPL is about 40.05 dB.
	got := FreeSpacePathLoss(1, 2.4e9)
	if math.Abs(got-40.05) > 0.1 {
		t.Fatalf("FSPL(1m, 2.4GHz) = %v", got)
	}
	// Doubling distance adds 6.02 dB.
	if d := FreeSpacePathLoss(2, 2.4e9) - got; math.Abs(d-6.02) > 0.01 {
		t.Fatalf("doubling distance added %v dB", d)
	}
}

func TestLogDistanceMonotonic(t *testing.T) {
	m := indoor24GHz()
	prev := math.Inf(-1)
	for d := 1.0; d <= 64; d *= 2 {
		loss := m.PathLossDB(d)
		if loss <= prev {
			t.Fatalf("loss not increasing at %v m", d)
		}
		prev = loss
	}
	// Exponent 3 → 30 dB per decade.
	if diff := m.PathLossDB(10) - m.PathLossDB(1); math.Abs(diff-30) > 1e-9 {
		t.Fatalf("per-decade loss = %v", diff)
	}
}

func TestLogDistanceBelowReference(t *testing.T) {
	m := indoor24GHz()
	if m.PathLossDB(0.1) != m.PathLossDB(1) {
		t.Fatal("distances below reference must clamp")
	}
}

func TestShadowingStatistics(t *testing.T) {
	m := indoor24GHz()
	s := rng.New(1)
	const n = 20000
	sum, sumSq := 0.0, 0.0
	det := m.PathLossDB(10)
	for i := 0; i < n; i++ {
		v := m.SampleLossDB(10, s) - det
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Fatalf("shadowing mean = %v", mean)
	}
	if math.Abs(std-m.ShadowSigmaDB) > 0.1 {
		t.Fatalf("shadowing std = %v, want %v", std, m.ShadowSigmaDB)
	}
}

func TestRSSIDeterministicWithoutStream(t *testing.T) {
	m := indoor24GHz()
	a := m.RSSI(0, 2, 2, 5, nil)
	b := m.RSSI(0, 2, 2, 5, nil)
	if a != b {
		t.Fatal("nil stream RSSI not deterministic")
	}
	want := 0 + 4 - m.PathLossDB(5)
	if math.Abs(a-want) > 1e-12 {
		t.Fatalf("RSSI = %v, want %v", a, want)
	}
}

func TestFadingMeansAreUnity(t *testing.T) {
	s := rng.New(2)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += RayleighGain(s)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("rayleigh mean gain = %v", mean)
	}
	for _, k := range []float64{0, 3, 10} {
		sum = 0
		for i := 0; i < n; i++ {
			sum += RicianGain(k, s)
		}
		if mean := sum / n; math.Abs(mean-1) > 0.02 {
			t.Fatalf("rician(k=%v) mean gain = %v", k, mean)
		}
	}
}

func TestRicianVarianceShrinksWithK(t *testing.T) {
	s := rng.New(3)
	variance := func(k float64) float64 {
		const n = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := RicianGain(k, s)
			sum += v
			sumSq += v * v
		}
		m := sum / n
		return sumSq/n - m*m
	}
	if variance(10) >= variance(0.5) {
		t.Fatal("stronger LoS should reduce fading variance")
	}
}

func TestThermalNoise(t *testing.T) {
	// 20 MHz, NF 6 dB → about -95 dBm.
	got := ThermalNoiseDBm(20e6, 6)
	if math.Abs(got-(-94.99)) > 0.1 {
		t.Fatalf("noise floor = %v", got)
	}
}

func TestBERCurves(t *testing.T) {
	// All BER functions: 0.5 at zero SNR, monotone decreasing, tiny at
	// high SNR.
	curves := map[string]func(float64) float64{
		"bpsk": BERBPSK,
		"ook":  BEROOK,
		"dsss": func(snr float64) float64 { return BERDSSS(snr, 8) },
	}
	for name, f := range curves {
		if f(0) != 0.5 {
			t.Fatalf("%s BER(0) = %v", name, f(0))
		}
		prev := 0.5
		for snr := 0.5; snr < 64; snr *= 2 {
			b := f(snr)
			if b > prev {
				t.Fatalf("%s BER not monotone at snr %v", name, snr)
			}
			prev = b
		}
		if f(100) > 1e-6 {
			t.Fatalf("%s BER(100) = %v", name, f(100))
		}
	}
	// Spreading gain must help: DSSS beats plain BPSK at equal SNR.
	if BERDSSS(1, 8) >= BERBPSK(1) {
		t.Fatal("spreading gain did not reduce BER")
	}
}

func TestPacketErrorRate(t *testing.T) {
	if PacketErrorRate(0, 1000) != 0 {
		t.Fatal("PER(0) != 0")
	}
	if PacketErrorRate(1, 10) != 1 {
		t.Fatal("PER(ber=1) != 1")
	}
	per := PacketErrorRate(1e-3, 1000)
	if math.Abs(per-(1-math.Pow(0.999, 1000))) > 1e-12 {
		t.Fatalf("PER = %v", per)
	}
	if PacketErrorRate(1e-3, 100) >= per {
		t.Fatal("shorter packets must have lower PER")
	}
}

func TestMultipathFrequencySelectivity(t *testing.T) {
	// Two taps with different delays create frequency-selective fading:
	// the response must vary across subcarriers.
	ch := MultipathChannel{Taps: []Tap{
		{DelaySec: 0, Gain: 1},
		{DelaySec: 50e-9, Gain: 0.6},
	}}
	resp := ch.SubcarrierResponse(2.437e9, 312.5e3, 52)
	minMag, maxMag := math.Inf(1), math.Inf(-1)
	for _, h := range resp {
		m := cmplx.Abs(h)
		minMag = math.Min(minMag, m)
		maxMag = math.Max(maxMag, m)
	}
	if maxMag-minMag < 0.1 {
		t.Fatalf("channel not frequency selective: [%v, %v]", minMag, maxMag)
	}
}

func TestSingleTapIsFlat(t *testing.T) {
	ch := MultipathChannel{Taps: []Tap{{DelaySec: 0, Gain: complex(0.5, 0.2)}}}
	resp := ch.SubcarrierResponse(2.437e9, 312.5e3, 16)
	for _, h := range resp {
		if cmplx.Abs(h-complex(0.5, 0.2)) > 1e-12 {
			t.Fatal("zero-delay single tap should be flat across frequency")
		}
	}
}

func TestSceneChannelMovementChangesResponse(t *testing.T) {
	base := Scene{
		TX: geom.Point{X: 0, Y: 0}, RX: geom.Point{X: 5, Y: 0}, CenterHz: 2.437e9,
		Scatterers: []Scatterer{{Pos: geom.Point{X: 2, Y: 2}, Reflectivity: 0.5}},
	}
	moved := base
	moved.Scatterers = []Scatterer{{Pos: geom.Point{X: 2.5, Y: 1.5}, Reflectivity: 0.5}}
	r1 := base.Channel(nil).SubcarrierResponse(2.437e9, 312.5e3, 52)
	r2 := moved.Channel(nil).SubcarrierResponse(2.437e9, 312.5e3, 52)
	diff := 0.0
	for i := range r1 {
		diff += cmplx.Abs(r1[i] - r2[i])
	}
	if diff < 1e-6 {
		t.Fatal("moving a scatterer did not change the channel")
	}
}

func TestLoSBlockingWeakensDirectPath(t *testing.T) {
	s := Scene{TX: geom.Point{X: 0, Y: 0}, RX: geom.Point{X: 5, Y: 0}, CenterHz: 2.437e9}
	open := cmplx.Abs(s.Channel(nil).FrequencyResponse(2.437e9))
	s.LoSBlocked = true
	blocked := cmplx.Abs(s.Channel(nil).FrequencyResponse(2.437e9))
	if blocked >= open {
		t.Fatalf("blocked LoS (%v) not weaker than open (%v)", blocked, open)
	}
}

func TestObstructionLoss(t *testing.T) {
	a, b := geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}
	people := []geom.Point{{X: 3, Y: 0}, {X: 7, Y: 0.1}, {X: 5, Y: 5}}
	got := NewObstacles(people, 0.3).LossDB(a, b)
	if got != 2*BodyAttenuationDB {
		t.Fatalf("obstruction loss = %v", got)
	}
}

// refObstructionLossDB is the linear scan Obstacles replaces: every person
// tested against the link.
func refObstructionLossDB(a, b geom.Point, people []geom.Point, bodyRadius float64) float64 {
	loss := 0.0
	for _, p := range people {
		if geom.SegmentIntersectsCircle(a, b, p, bodyRadius) {
			loss += BodyAttenuationDB
		}
	}
	return loss
}

// ulps returns x moved k ulps (k may be negative).
func ulps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

func TestObstaclesMatchLinearScan(t *testing.T) {
	s := rng.New(21)
	const r = 0.35
	pt := func() geom.Point { return geom.Point{X: 120 * s.Float64(), Y: 3 * s.Float64()} }
	for scene := 0; scene < 30; scene++ {
		people := make([]geom.Point, s.Intn(200))
		for i := range people {
			people[i] = pt()
		}
		var links [][2]geom.Point
		for i := 0; i < 60; i++ {
			a, b := pt(), pt()
			switch i % 4 {
			case 1:
				b.X = a.X // vertical link
			case 2:
				b = a // degenerate link
			}
			links = append(links, [2]geom.Point{a, b})
			// People whose distance to the link is within a few ulps of
			// r, beside each end of its X-range, where the window is cut.
			lo, hi := a, b
			if lo.X > hi.X {
				lo, hi = hi, lo
			}
			for k := -3; k <= 3; k++ {
				people = append(people,
					geom.Point{X: ulps(lo.X-r, k), Y: lo.Y},
					geom.Point{X: ulps(hi.X+r, k), Y: hi.Y})
			}
		}
		orig := append([]geom.Point(nil), people...)
		idx := NewObstacles(people, r)
		for i := range people {
			if people[i] != orig[i] {
				t.Fatal("NewObstacles reordered the caller's slice")
			}
		}
		for _, l := range links {
			if got, want := idx.LossDB(l[0], l[1]), refObstructionLossDB(l[0], l[1], people, r); got != want {
				t.Fatalf("scene %d, link %v: LossDB = %v, linear scan %v", scene, l, got, want)
			}
		}
	}
}

func TestObstaclesEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	a, b := geom.Point{X: 1, Y: 1}, geom.Point{X: 4, Y: 2}
	for _, people := range [][]geom.Point{nil, {}} {
		if got := NewObstacles(people, 0.3).LossDB(a, b); got != 0 {
			t.Fatalf("no people: LossDB = %v", got)
		}
	}
	if got := (Obstacles{}).LossDB(a, b); got != 0 {
		t.Fatalf("zero Obstacles: LossDB = %v", got)
	}
	people := []geom.Point{{X: 2, Y: 1.3}, {X: nan, Y: 1}, {X: nan, Y: inf}, {X: inf, Y: 1},
		{X: -inf, Y: 2}, {X: 1, Y: nan}, {X: 1, Y: 1}, {X: 4, Y: 2}}
	links := [][2]geom.Point{{a, b}, {a, a}, {b, a}, {{X: nan, Y: 1}, b}, {a, {X: inf, Y: 2}},
		{{X: -inf, Y: 0}, {X: inf, Y: 0}}, {{X: 1, Y: nan}, b}, {{X: 1e300, Y: 0}, {X: -1e300, Y: 1}}}
	for _, r := range []float64{0.3, 0, -1, nan, inf, -inf, 1e300} {
		idx := NewObstacles(people, r)
		for _, l := range links {
			if got, want := idx.LossDB(l[0], l[1]), refObstructionLossDB(l[0], l[1], people, r); got != want {
				t.Fatalf("r=%v, link %v: LossDB = %v, linear scan %v", r, l, got, want)
			}
		}
	}
}

func TestBackscatterProductChannel(t *testing.T) {
	link := BackscatterLink{Model: LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2}, TagLossDB: 10, SourceTxDBm: 20}
	// Symmetric in the two segment distances.
	if link.ReceivedDBm(2, 8, nil) != link.ReceivedDBm(8, 2, nil) {
		t.Fatal("product channel not symmetric")
	}
	// Moving the tag away from both ends must reduce power sharply: with
	// exponent 2, doubling both distances costs 12 dB.
	near := link.ReceivedDBm(1, 1, nil)
	far := link.ReceivedDBm(2, 2, nil)
	want := 40 * math.Log10(2) // 2 segments x 20*log10(2) each
	if math.Abs((near-far)-want) > 1e-9 {
		t.Fatalf("product rolloff = %v dB, want %v", near-far, want)
	}
}

func TestBackscatterSNRImprovesWithCancellation(t *testing.T) {
	link := BackscatterLink{Model: LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.5}, TagLossDB: 8, SourceTxDBm: 20}
	noise := ThermalNoiseDBm(2e6, 6)
	low := link.SNR(3, 3, 5, noise, 20, nil)
	high := link.SNR(3, 3, 5, noise, 80, nil)
	if high <= low {
		t.Fatal("more cancellation should raise SNR")
	}
}

func TestEnergyPerBitRatios(t *testing.T) {
	radios := StandardRadios()
	byTech := map[string]EnergyPerBit{}
	for _, r := range radios {
		byTech[r.Tech] = r
	}
	wifi := byTech["wifi"].JoulesPerBit()
	back := byTech["backscatter"].JoulesPerBit()
	ratio := wifi / back
	// Paper: backscatter cuts power ~1/10,000 vs conventional radio.
	if ratio < 1000 || ratio > 100000 {
		t.Fatalf("wifi/backscatter energy ratio = %v, want order 10^4", ratio)
	}
	ble := byTech["ble"].JoulesPerBit()
	if !(back < ble && ble < wifi) {
		t.Fatal("energy ordering backscatter < ble < wifi violated")
	}
}

// indoor24GHz returns a log-distance model calibrated for 2.4 GHz indoor
// environments: 40 dB loss at 1 m, exponent 3.0, 4 dB shadowing.
func indoor24GHz() LogDistance {
	return LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 3.0, ShadowSigmaDB: 4}
}
