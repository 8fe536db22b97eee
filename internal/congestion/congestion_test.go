package congestion

import (
	"math"
	"testing"

	"zeiot/internal/geom"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

func TestLevelFor(t *testing.T) {
	cfg := DefaultTrainConfig()
	if cfg.LevelFor(0) != LevelLow || cfg.LevelFor(cfg.MediumAt-1) != LevelLow {
		t.Fatal("low thresholds wrong")
	}
	if cfg.LevelFor(cfg.MediumAt) != LevelMedium || cfg.LevelFor(cfg.HighAt-1) != LevelMedium {
		t.Fatal("medium thresholds wrong")
	}
	if cfg.LevelFor(cfg.HighAt) != LevelHigh || cfg.LevelFor(100) != LevelHigh {
		t.Fatal("high thresholds wrong")
	}
}

func TestGenerateScenario(t *testing.T) {
	cfg := DefaultTrainConfig()
	s, err := Generate(cfg, []int{3, 0, 10, 5, 1, 7}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Users) != 26 {
		t.Fatalf("users = %d", len(s.Users))
	}
	for u, p := range s.Users {
		car := cfg.carOfX(p.X)
		if car != s.Car[u] {
			t.Fatalf("user %d at x=%.1f labelled car %d, geometric car %d", u, p.X, s.Car[u], car)
		}
		if p.Y < 0 || p.Y > cfg.CarWidth {
			t.Fatalf("user %d outside car width: %v", u, p)
		}
	}
	if _, err := Generate(cfg, []int{1, 2}, rng.New(1)); err == nil {
		t.Fatal("wrong car-count length accepted")
	}
}

func TestDoorAttenuationVisibleInMeasurements(t *testing.T) {
	cfg := DefaultTrainConfig()
	cfg.Model.ShadowSigmaDB = 0
	// One user in car 0, nobody else.
	s, err := Generate(cfg, []int{1, 0, 0, 0, 0, 0}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(s, nil)
	// RSSI from own-car reference must exceed far references, and each
	// door adds loss on top of distance.
	own := m.UserRef[0][0]
	for r := 1; r < cfg.Cars; r++ {
		if m.UserRef[0][r] >= own {
			t.Fatalf("ref %d RSSI %v >= own-car %v", r, m.UserRef[0][r], own)
		}
	}
	if m.UserRef[0][5] >= m.UserRef[0][2] {
		t.Fatal("five-door RSSI not below two-door RSSI")
	}
}

func TestCrowdingDepressesPeerRSSI(t *testing.T) {
	cfg := DefaultTrainConfig()
	cfg.Model.ShadowSigmaDB = 0
	stream := rng.New(3)
	sparse, err := Generate(cfg, []int{4, 0, 0, 0, 0, 0}, stream)
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := Generate(cfg, []int{40, 0, 0, 0, 0, 0}, stream)
	if err != nil {
		t.Fatal(err)
	}
	ms := Measure(sparse, nil)
	mc := Measure(crowded, nil)
	meanOf := func(m Measurements) float64 {
		s := 0.0
		for _, c := range m.PeerCount {
			s += float64(c)
		}
		return s / float64(len(m.PeerCount))
	}
	// A crowded car has many more audible peers.
	if meanOf(mc) <= meanOf(ms) {
		t.Fatal("crowding did not raise peer count")
	}
}

func TestPositioningAccuracy(t *testing.T) {
	cfg := DefaultTrainConfig()
	stream := rng.New(4)
	est, err := Calibrate(cfg, 10, stream.Split("cal"))
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for trial := 0; trial < 5; trial++ {
		perCar := make([]int, cfg.Cars)
		for c := range perCar {
			perCar[c] = 3 + stream.Intn(30)
		}
		s, err := Generate(cfg, perCar, stream)
		if err != nil {
			t.Fatal(err)
		}
		m := Measure(s, stream)
		cars, rel := est.Positions(m)
		for u := range cars {
			if cars[u] == s.Car[u] {
				correct++
			}
			if rel[u] < 0 || rel[u] > 1+1e-9 {
				t.Fatalf("reliability out of range: %v", rel[u])
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	// Paper reports 83%; require comfortably above chance (1/6) and a
	// plausible floor for the method.
	if acc < 0.6 {
		t.Fatalf("car positioning accuracy = %.3f", acc)
	}
}

func TestCongestionEstimation(t *testing.T) {
	cfg := DefaultTrainConfig()
	stream := rng.New(5)
	est, err := Calibrate(cfg, 12, stream.Split("cal"))
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for trial := 0; trial < 6; trial++ {
		perCar := make([]int, cfg.Cars)
		for c := range perCar {
			switch (trial + c) % 3 {
			case 0:
				perCar[c] = 3 + stream.Intn(cfg.MediumAt-3)
			case 1:
				perCar[c] = cfg.MediumAt + stream.Intn(cfg.HighAt-cfg.MediumAt)
			default:
				perCar[c] = cfg.HighAt + stream.Intn(20)
			}
		}
		s, err := Generate(cfg, perCar, stream)
		if err != nil {
			t.Fatal(err)
		}
		m := Measure(s, stream)
		cars, rel := est.Positions(m)
		levels := est.CarCongestion(m, cars, rel)
		for c := range levels {
			if levels[c] == cfg.LevelFor(perCar[c]) {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.55 {
		t.Fatalf("car congestion accuracy = %.3f", acc)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(DefaultTrainConfig(), 1, rng.New(1)); err == nil {
		t.Fatal("too few rides accepted")
	}
}

func TestRoomFeaturesRespondToPeople(t *testing.T) {
	cfg := DefaultRoomConfig()
	cfg.Model.ShadowSigmaDB = 0
	est, err := TrainRoomEstimator(cfg, 2, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	empty := GenerateRoomSample(cfg, est.Network(), 0, rng.New(7))
	full := GenerateRoomSample(cfg, est.Network(), 10, rng.New(8))
	// Mean attenuation and surrounding RSSI must both rise with people.
	if full.Features[0] <= empty.Features[0] {
		t.Fatalf("attenuation did not rise: %v vs %v", full.Features[0], empty.Features[0])
	}
	if full.Features[3] <= empty.Features[3] {
		t.Fatalf("surrounding RSSI did not rise: %v vs %v", full.Features[3], empty.Features[3])
	}
}

func TestRoomCountingWithinTwo(t *testing.T) {
	cfg := DefaultRoomConfig()
	stream := rng.New(9)
	est, err := TrainRoomEstimator(cfg, 40, stream.Split("train"))
	if err != nil {
		t.Fatal(err)
	}
	res := EvaluateRoom(est, 10, stream.Split("eval"))
	// Paper: ~79% exact accuracy with errors up to two people.
	if res.Exact < 0.5 {
		t.Fatalf("exact counting accuracy = %.3f", res.Exact)
	}
	if res.Within2 < 0.9 {
		t.Fatalf("within-2 fraction = %.3f", res.Within2)
	}
	if res.MeanAbs > 1.5 {
		t.Fatalf("mean abs error = %.3f", res.MeanAbs)
	}
}

func TestRoomEstimatorValidation(t *testing.T) {
	if _, err := TrainRoomEstimator(DefaultRoomConfig(), 1, rng.New(1)); err == nil {
		t.Fatal("too few samples accepted")
	}
}

func TestRoomDeterminism(t *testing.T) {
	cfg := DefaultRoomConfig()
	net := wsn.NewGrid(cfg.Rows, cfg.Cols, cfg.Spacing)
	a := GenerateRoomSample(cfg, net, 3, rng.New(11))
	b := GenerateRoomSample(cfg, net, 3, rng.New(11))
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			t.Fatal("same seed produced different room features")
		}
	}
}

func TestLevelString(t *testing.T) {
	if LevelLow.String() != "low" || LevelMedium.String() != "medium" || LevelHigh.String() != "high" {
		t.Fatal("level strings wrong")
	}
	if Level(9).String() == "" {
		t.Fatal("unknown level has empty string")
	}
}

func TestLinkRSSIMonotoneInDistance(t *testing.T) {
	cfg := DefaultTrainConfig()
	cfg.Model.ShadowSigmaDB = 0
	a := geom.Point{X: 1, Y: 1}
	near := linkRSSI(cfg, a, geom.Point{X: 3, Y: 1}, radio.Obstacles{}, nil)
	far := linkRSSI(cfg, a, geom.Point{X: 15, Y: 1}, radio.Obstacles{}, nil)
	if far >= near {
		t.Fatal("RSSI not monotone in distance")
	}
	if math.IsNaN(near) || math.IsNaN(far) {
		t.Fatal("NaN RSSI")
	}
}

func TestRoomFeatureModes(t *testing.T) {
	cfg := DefaultRoomConfig()
	net := wsn.NewGrid(cfg.Rows, cfg.Cols, cfg.Spacing)
	fused := GenerateRoomSample(cfg, net, 4, rng.New(31))
	if len(fused.Features) != 5 {
		t.Fatalf("fused features = %d", len(fused.Features))
	}
	cfg.Mode = RoomLinksOnly
	links := GenerateRoomSample(cfg, net, 4, rng.New(31))
	if len(links.Features) != 3 {
		t.Fatalf("links-only features = %d", len(links.Features))
	}
	cfg.Mode = RoomSurroundingOnly
	sur := GenerateRoomSample(cfg, net, 4, rng.New(31))
	if len(sur.Features) != 2 {
		t.Fatalf("surrounding-only features = %d", len(sur.Features))
	}
}

func TestRoomModesBothCount(t *testing.T) {
	// Each measurement kind alone must count well above chance — people
	// block links AND carry devices, the two §IV.B estimators of [66].
	stream := rng.New(32)
	for _, mode := range []RoomFeatureMode{RoomLinksOnly, RoomSurroundingOnly} {
		cfg := DefaultRoomConfig()
		cfg.Mode = mode
		est, err := TrainRoomEstimator(cfg, 40, stream.Split("train"))
		if err != nil {
			t.Fatal(err)
		}
		res := EvaluateRoom(est, 8, stream.Split("eval"))
		if res.Within2 < 0.8 {
			t.Fatalf("mode %d: within-2 = %.3f", mode, res.Within2)
		}
	}
}
