package dataset

import (
	"math"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

func TestLoungeDimensionsMatchPaper(t *testing.T) {
	cfg := DefaultLoungeConfig()
	samples, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2961 {
		t.Fatalf("samples = %d, want 2961", len(samples))
	}
	shape := samples[0].Input.Shape()
	if shape[0] != 1 || shape[1] != 17 || shape[2] != 25 {
		t.Fatalf("snapshot shape = %v, want (1,17,25)", shape)
	}
}

func TestLoungeLabelsBalancedAndBinary(t *testing.T) {
	cfg := DefaultLoungeConfig()
	cfg.Samples = 600
	samples, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, s := range samples {
		if s.Label != 0 && s.Label != 1 {
			t.Fatalf("label = %d", s.Label)
		}
		ones += s.Label
	}
	frac := float64(ones) / float64(len(samples))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("positive fraction = %.3f", frac)
	}
}

func TestLoungeFieldsNormalized(t *testing.T) {
	cfg := DefaultLoungeConfig()
	cfg.Samples = 10
	samples, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		sum := 0.0
		for _, v := range s.Input.Data() {
			sum += v
		}
		if m := sum / float64(s.Input.Size()); math.Abs(m) > 1e-6 {
			t.Fatalf("field mean = %v", m)
		}
	}
}

func TestLoungeDeterministicBySeed(t *testing.T) {
	cfg := DefaultLoungeConfig()
	cfg.Samples = 20
	a, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Label != b[i].Label || !tensor.Equal(a[i].Input, b[i].Input, 0) {
			t.Fatal("same seed produced different lounge data")
		}
	}
	cfg.Seed = 2
	c, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if !tensor.Equal(a[i].Input, c[i].Input, 1e-12) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical lounge data")
	}
}

func TestLoungeValidation(t *testing.T) {
	cfg := DefaultLoungeConfig()
	cfg.Rows = 0
	if _, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestLoungeLearnable(t *testing.T) {
	// A small CNN must beat chance clearly on the generated data —
	// otherwise the substitution would not exercise the paper's task.
	cfg := DefaultLoungeConfig()
	cfg.Samples = 400
	samples, err := GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(7)
	net := cnn.NewNetwork([]int{1, 17, 25},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(3, 3),
		cnn.NewFlatten(),
		cnn.NewDense(4*5*8, 2, s.Split("d")),
	)
	train, test := samples[:320], samples[320:]
	net.FitParallel(train, 8, 16, 1, cnn.NewSGD(0.03, 0.9), s.Split("fit"))
	if acc := net.Evaluate(test); acc < 0.8 {
		t.Fatalf("lounge test accuracy = %.3f, want >= 0.8", acc)
	}
}

func TestGaitStreamDimensions(t *testing.T) {
	cfg := DefaultGaitConfig()
	streams, err := GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 55 {
		t.Fatalf("streams = %d, want 55", len(streams))
	}
	subjects := map[int]bool{}
	for _, gs := range streams {
		if len(gs.Frames) != 66 {
			t.Fatalf("frames = %d, want 66", len(gs.Frames))
		}
		subjects[gs.Subject] = true
		sh := gs.Frames[0].Shape()
		if sh[0] != 8 || sh[1] != 8 {
			t.Fatalf("frame shape = %v", sh)
		}
	}
	if len(subjects) != 5 {
		t.Fatalf("subjects = %d, want 5", len(subjects))
	}
}

func TestWindowsCountAndLabels(t *testing.T) {
	cfg := DefaultGaitConfig()
	streams, err := GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	wins := Windows(cfg, streams)
	shape := wins[0].Input.Shape()
	if shape[0] != 10 || shape[1] != 8 || shape[2] != 8 {
		t.Fatalf("window shape = %v", shape)
	}
	// Expected counts per the labelling rule: walk streams contribute all
	// 57 windows; fall streams contribute FallAt+1 windows minus the two
	// ambiguous onset-grazing ones, exactly 8 of them labelled fall.
	wantTotal, wantFalls := 0, 0
	for _, gs := range streams {
		if gs.FallAt < 0 {
			wantTotal += 57
			continue
		}
		wantTotal += gs.FallAt + 1 - 2
		wantFalls += 8
	}
	gotFalls := 0
	for _, w := range wins {
		gotFalls += w.Label
	}
	if len(wins) != wantTotal {
		t.Fatalf("windows = %d, want %d", len(wins), wantTotal)
	}
	if gotFalls != wantFalls {
		t.Fatalf("fall windows = %d, want %d", gotFalls, wantFalls)
	}
}

func TestFallChangesFrames(t *testing.T) {
	cfg := DefaultGaitConfig()
	cfg.NoiseLevel = 0
	streams, err := GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	var fall *GaitStream
	for i := range streams {
		if streams[i].FallAt > 5 && streams[i].FallAt < 55 {
			fall = &streams[i]
			break
		}
	}
	if fall == nil {
		t.Skip("no suitable fall stream in this seed")
	}
	// After the fall completes, the heat centroid must be near the floor.
	post := fall.Frames[fall.FallAt+5]
	rows := post.Dim(0)
	centroid, total := 0.0, 0.0
	for y := 0; y < rows; y++ {
		for x := 0; x < post.Dim(1); x++ {
			v := post.At(y, x)
			centroid += v * float64(y)
			total += v
		}
	}
	centroid /= total
	if centroid < float64(rows)*0.6 {
		t.Fatalf("post-fall centroid at row %.2f of %d, want near floor", centroid, rows)
	}
}

func TestBalancedWindows(t *testing.T) {
	cfg := DefaultGaitConfig()
	streams, err := GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	bal := BalancedWindows(cfg, streams, 1.0, rng.New(3))
	falls, walks := 0, 0
	for _, s := range bal {
		if s.Label == 1 {
			falls++
		} else {
			walks++
		}
	}
	if falls == 0 || walks != falls {
		t.Fatalf("balance: %d falls, %d walks", falls, walks)
	}
}

func TestGaitValidation(t *testing.T) {
	cfg := DefaultGaitConfig()
	cfg.WindowFrames = 100
	if _, err := GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed)); err == nil {
		t.Fatal("window longer than stream accepted")
	}
	cfg = DefaultGaitConfig()
	cfg.Streams = 0
	if _, err := GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed)); err == nil {
		t.Fatal("zero streams accepted")
	}
}

func TestGaitLearnable(t *testing.T) {
	// The paper's CNN (1 conv + 1 pool + 2 FC) must detect falls well
	// above chance on the synthetic streams.
	cfg := DefaultGaitConfig()
	cfg.Streams = 30
	streams, err := GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(5)
	samples := BalancedWindows(cfg, streams, 1.0, s.Split("bal"))
	net := cnn.NewNetwork([]int{10, 8, 8},
		cnn.NewConv2D(10, 6, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(6*4*4, 16, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, s.Split("d2")),
	)
	cut := len(samples) * 3 / 4
	net.FitParallel(samples[:cut], 10, 16, 1, cnn.NewSGD(0.03, 0.9), s.Split("fit"))
	if acc := net.Evaluate(samples[cut:]); acc < 0.85 {
		t.Fatalf("fall detection accuracy = %.3f", acc)
	}
}
