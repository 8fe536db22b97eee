package zeiot_test

import (
	"bytes"
	"context"
	"strconv"
	"testing"
	"time"

	"zeiot"
	"zeiot/internal/cnn"
	"zeiot/internal/congestion"
	"zeiot/internal/csi"
	"zeiot/internal/dataset"
	"zeiot/internal/geom"
	"zeiot/internal/mac"
	"zeiot/internal/microdeep"
	"zeiot/internal/ml"
	"zeiot/internal/modality"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// benchExperiment runs one paper-artifact experiment per iteration and
// publishes its headline numbers as benchmark metrics, so a single
// `go test -bench=.` regenerates (and records) every table and figure.
// The metric-publishing run happens before the timer starts so ReportMetric
// bookkeeping never pollutes ns/op. Per-stage wall times from the warm-up
// run are published as <stage>_stage_sec metrics.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := zeiot.FindExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	res, err := exp.Run(ctx, nil) // warm-up run, also supplies the metrics
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, k := range res.SummaryKeys() {
		b.ReportMetric(res.Summary[k], k)
	}
	for _, stage := range res.Timings.Stages() {
		b.ReportMetric(res.Timings[stage].Seconds(), stage+"_stage_sec")
	}
}

// One benchmark per paper artifact (see DESIGN.md's experiment index).

func BenchmarkE1FallCommCost(b *testing.B)    { benchExperiment(b, "e1") }
func BenchmarkE2LoungeAccuracy(b *testing.B)  { benchExperiment(b, "e2") }
func BenchmarkE3TrainCar(b *testing.B)        { benchExperiment(b, "e3") }
func BenchmarkE4RoomCount(b *testing.B)       { benchExperiment(b, "e4") }
func BenchmarkE5CSILocalization(b *testing.B) { benchExperiment(b, "e5") }
func BenchmarkE6BackscatterMAC(b *testing.B)  { benchExperiment(b, "e6") }
func BenchmarkE7LinkEnergy(b *testing.B)      { benchExperiment(b, "e7") }
func BenchmarkE8Resilience(b *testing.B)      { benchExperiment(b, "e8") }
func BenchmarkE9Sociogram(b *testing.B)       { benchExperiment(b, "e9") }
func BenchmarkE10RFIDTracking(b *testing.B)   { benchExperiment(b, "e10") }

// --- substrate micro-benchmarks ---

func benchNet(seed uint64) (*cnn.Network, *tensor.Tensor) {
	s := rng.New(seed)
	net := cnn.NewNetwork([]int{1, 17, 25},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(3, 3),
		cnn.NewFlatten(),
		cnn.NewDense(4*5*8, 16, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, s.Split("d2")),
	)
	in := tensor.New(1, 17, 25)
	d := in.Data()
	for i := range d {
		d[i] = s.NormMeanStd(0, 1)
	}
	return net, in
}

func BenchmarkCNNForward(b *testing.B) {
	net, in := benchNet(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(in)
	}
}

func BenchmarkCNNTrainStep(b *testing.B) {
	net, in := benchNet(2)
	opt := cnn.NewSGD(0.01, 0.9)
	samples := []cnn.Sample{{Input: in, Label: 1}}
	stream := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.FitParallel(samples, 1, 1, 1, opt, stream)
	}
}

func BenchmarkDistributedForward(b *testing.B) {
	net, in := benchNet(3)
	g, err := microdeep.BuildGraph(net)
	if err != nil {
		b.Fatal(err)
	}
	ex := microdeep.NewExecutor(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssignBalanced(b *testing.B) {
	net, _ := benchNet(4)
	g, err := microdeep.BuildGraph(net)
	if err != nil {
		b.Fatal(err)
	}
	w := wsn.NewGrid(5, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microdeep.AssignBalanced(g, w, microdeep.DefaultBalanceOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChargeForward(b *testing.B) {
	net, _ := benchNet(5)
	g, err := microdeep.BuildGraph(net)
	if err != nil {
		b.Fatal(err)
	}
	w := wsn.NewGrid(5, 10, 1)
	a, err := microdeep.AssignBalanced(g, w, microdeep.DefaultBalanceOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ResetCounters()
		if _, err := microdeep.ChargeForward(g, a, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroDeepTrainStep times one local-update training step through
// the replica-aware path (per-position kernel tables, first-layer gradient
// skip, replica SGD + gossip bookkeeping).
func BenchmarkMicroDeepTrainStep(b *testing.B) {
	net, in := benchNet(6)
	w := wsn.NewGrid(5, 10, 1)
	m, err := microdeep.Build(net, w, microdeep.StrategyBalanced)
	if err != nil {
		b.Fatal(err)
	}
	m.EnableLocalUpdate()
	opt := cnn.NewSGD(0.01, 0.9)
	samples := []cnn.Sample{{Input: in, Label: 1}}
	stream := rng.New(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FitParallel(samples, 1, 1, 1, opt, stream)
	}
}

// BenchmarkPlan times Plan with a warm cache: a key computation (assignment
// hash), one map hit, and the defensive copy of the transfer list.
func BenchmarkPlan(b *testing.B) {
	net, _ := benchNet(7)
	g, err := microdeep.BuildGraph(net)
	if err != nil {
		b.Fatal(err)
	}
	w := wsn.NewGrid(5, 10, 1)
	a, err := microdeep.AssignBalanced(g, w, microdeep.DefaultBalanceOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microdeep.Plan(g, a, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostPerSample times the full per-sample cost accounting the
// experiments loop over: forward + backward charge replaying the cached
// plan, plus the report snapshot.
func BenchmarkCostPerSample(b *testing.B) {
	net, _ := benchNet(8)
	w := wsn.NewGrid(5, 10, 1)
	m, err := microdeep.Build(net, w, microdeep.StrategyBalanced)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CostPerSample(false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACSimSecond(b *testing.B) {
	cfg := mac.DefaultConfig()
	cfg.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mac.Run(cfg, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSIFeatureExtraction(b *testing.B) {
	pattern := csi.PaperPatterns()[0]
	room := csi.DefaultRoom(pattern)
	pos := csi.SevenPositions()[0]
	stream := rng.New(1)
	snapshot := room.Snapshot(pos, stream)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := room.Feedback.Features(snapshot); err != nil {
			b.Fatal(err)
		}
	}
}

// e5AblationFold returns one fold of e5's classifier ablation: the
// walk/divergent pattern's 7 positions × 32 snapshots of 624 angle
// features, split 168 train / 56 test and standardized on the training
// rows as ml.CrossValidate does.
func e5AblationFold(b *testing.B) (train, test ml.Dataset) {
	b.Helper()
	room := csi.DefaultRoom(csi.PaperPatterns()[0])
	stream := rng.New(1).Split("classifier-ablation")
	var trainIdx, testIdx []int
	var all ml.Dataset
	for posIdx, pos := range csi.SevenPositions() {
		for s := 0; s < 32; s++ {
			feat, err := room.Feedback.Features(room.Snapshot(pos, stream))
			if err != nil {
				b.Fatal(err)
			}
			if len(all.X)%4 == 0 {
				testIdx = append(testIdx, len(all.X))
			} else {
				trainIdx = append(trainIdx, len(all.X))
			}
			all.X = append(all.X, feat)
			all.Y = append(all.Y, posIdx)
		}
	}
	std := ml.FitStandardizer(all.Subset(trainIdx))
	return std.Apply(all.Subset(trainIdx)), std.Apply(all.Subset(testIdx))
}

// BenchmarkSoftmaxFit fits e5's ablation softmax (7 classes, 150 epochs)
// to one 168×624 fold.
func BenchmarkSoftmaxFit(b *testing.B) {
	train, _ := e5AblationFold(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ml.Softmax{LR: 0.3, Epochs: 150, Seed: 1}).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNPredict classifies one held-out e5 row per operation against
// the fold's 168×624 training rows with k = 3.
func BenchmarkKNNPredict(b *testing.B) {
	train, test := e5AblationFold(b)
	m, err := ml.KNN{K: 3}.Fit(train)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Predict(test.X[i%test.Len()])
	}
}

// benchSink keeps benchmarked results alive.
var benchSink int

// BenchmarkTrainCarMeasure runs one congestion.Measure RSSI sweep of e3's
// six-car train with every car at high congestion (40 phones each).
func BenchmarkTrainCarMeasure(b *testing.B) {
	cfg := congestion.DefaultTrainConfig()
	perCar := make([]int, cfg.Cars)
	for c := range perCar {
		perCar[c] = 40
	}
	stream := rng.New(1)
	sc, err := congestion.Generate(cfg, perCar, stream)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		congestion.Measure(sc, stream)
	}
}

func BenchmarkWSNRouting(b *testing.B) {
	w := wsn.NewGrid(10, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Send(0, 99, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantForward compares int8 fixed-point inference against the
// float forward pass on the same trained net.
func BenchmarkQuantForward(b *testing.B) {
	net, in := benchNet(7)
	qn, err := cnn.QuantizeNetwork(net, []cnn.Sample{{Input: in, Label: 0}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("float", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.Forward(in)
		}
	})
	b.Run("int8", func(b *testing.B) {
		qn.Forward(in) // warm (build-time buffers only; proves no lazy alloc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qn.Forward(in)
		}
	})
}

// BenchmarkE16NodesPerSec runs the crowd-scale scenario end to end at three
// field sizes and reports node-steps simulated per wall-clock second
// (nodes × steps × iterations / elapsed) — the PR 7 scale metric. The 100k
// sub-benchmark is the acceptance case: one full structural build, churn
// repaired shard by shard.
func BenchmarkE16NodesPerSec(b *testing.B) {
	for _, nodes := range []int{1_000, 10_000, 100_000} {
		b.Run("nodes"+strconv.Itoa(nodes), func(b *testing.B) {
			cfg := &zeiot.RunConfig{Seed: 1, Nodes: nodes}
			ctx := context.Background()
			res, err := zeiot.RunE16Crowd(ctx, cfg) // warm-up, supplies steps
			if err != nil {
				b.Fatal(err)
			}
			steps := res.Summary["steps"]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := zeiot.RunE16Crowd(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(nodes)*steps/b.Elapsed().Seconds(), "nodes_per_sec")
			b.ReportMetric(res.Summary["full_rebuilds"], "full_rebuilds")
			b.ReportMetric(res.Summary["shard_rebuilds"], "shard_rebuilds")
		})
	}
}

// BenchmarkWSNLinked measures the Linked predicate at high node degree on a
// dense all-within-range cluster: the binary sub-benchmark is the PR 7
// sorted-adjacency binary search, scan replays the pre-PR7 linear walk over
// the neighbour list for the before/after record.
func BenchmarkWSNLinked(b *testing.B) {
	const n = 256
	s := rng.New(9)
	positions := make([]geom.Point, n)
	for i := range positions {
		positions[i] = geom.Point{X: s.Float64(), Y: s.Float64()}
	}
	w := wsn.New(positions, 2) // every pair in range: degree n-1
	w.Hops(0, 1)               // build tables outside the timed region
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			if w.Linked(i%n, (i*7+3)%n) {
				hits++
			}
		}
		_ = hits
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			u, v := i%n, (i*7+3)%n
			for _, nb := range w.Neighbors(u) {
				if nb == v {
					hits++
					break
				}
			}
		}
		_ = hits
	})
}

func BenchmarkE11BatteryFree(b *testing.B)   { benchExperiment(b, "e11") }
func BenchmarkE12SurveySensing(b *testing.B) { benchExperiment(b, "e12") }
func BenchmarkE13AthleteHAR(b *testing.B)    { benchExperiment(b, "e13") }
func BenchmarkE14Intrusion(b *testing.B)     { benchExperiment(b, "e14") }
func BenchmarkE15Vitals(b *testing.B)        { benchExperiment(b, "e15") }

func BenchmarkE17Intermittent(b *testing.B) { benchExperiment(b, "e17") }
func BenchmarkE18CrossModal(b *testing.B)   { benchExperiment(b, "e18") }

// BenchmarkModalityGenerate measures raw sample throughput of every
// registered modality adapter through the unified Source interface — the
// PR 9 per-modality samples/sec record. Generation is pure compute over a
// named rng stream, so this is the dataset-side cost of a matrix row.
func BenchmarkModalityGenerate(b *testing.B) {
	const n = 32
	for _, name := range modality.Names() {
		b.Run(name, func(b *testing.B) {
			src, err := modality.New(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Generate(n, rng.New(1).Split("bench")); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "samples_per_sec")
		})
	}
}

// BenchmarkTrainerCheckpoint measures the intermittent runtime's insurance
// premium: one mid-training Save plus a full ResumeTrainer round-trip of
// the e2 lounge net, with the checkpoint size as a metric.
func BenchmarkTrainerCheckpoint(b *testing.B) {
	samples := benchLoungeSamples(b, 96)
	tr := cnn.NewTrainer(benchNet2(1), cnn.NewSGD(0.02, 0.9), rng.New(3).Split("fit"), samples, 8, 16, 1)
	tr.Step(2)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := cnn.ResumeTrainer(bytes.NewReader(buf.Bytes()), samples, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len()), "checkpoint_bytes")
}

// benchLoungeSamples is loungeSamples for benchmarks (testing.B, not .T).
func benchLoungeSamples(b *testing.B, n int) []cnn.Sample {
	b.Helper()
	cfg := dataset.DefaultLoungeConfig()
	cfg.Seed = 7
	cfg.Samples = n
	samples, err := dataset.GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		b.Fatal(err)
	}
	return samples
}
