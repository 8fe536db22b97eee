package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"zeiot"
	"zeiot/internal/cnn"
	"zeiot/internal/congestion"
	"zeiot/internal/csi"
	"zeiot/internal/geom"
	"zeiot/internal/microdeep"
	"zeiot/internal/ml"
	"zeiot/internal/modality"
	"zeiot/internal/obs"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// tracedBatch is the traced run of a batch workload. It has three parts:
//
//  1. Every experiment runs in-process through Experiment.Run twice, without
//     and with an obs.Registry recorder. The first run's Result.Timings give
//     the stage.* and exp.* metrics, the ratio of the two totals gives
//     obs.overhead_frac, and the recorder's snapshot gives the program's own
//     cache counters. Both results must be byte-identical (and equal the
//     reference at the reference seed).
//  2. A replay repeats each experiment's call sequence through the same
//     public constructors and default configs, with a span around every call
//     into a layer, giving the per-layer self times and trace.coverage.
//  3. Probes time what a replay cannot isolate: WSN routing per call and
//     CSI feature allocations per call.
func tracedBatch(ctx context.Context, e *env, name string, exps []string, seed uint64) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(e.procs)) // as the passes run
	o := newOutcome()
	stages := map[string]float64{}
	var plain, withRec float64
	counters := map[string]float64{}
	for _, id := range exps {
		ex, err := zeiot.FindExperiment(id)
		if err != nil {
			return nil, err
		}
		cfg := &zeiot.RunConfig{Seed: seed, TrainWorkers: e.procs, SampleScale: 1}
		res, want, err := runInProcess(ctx, ex, cfg)
		if err != nil {
			return nil, err
		}
		o.attempted++
		if seed == refSeed && !bytes.Equal(want, e.refs[id]) {
			o.fail("%s: in-process result differs from the reference", id)
		}
		for _, st := range []string{zeiot.StageDataset, zeiot.StageTrain, zeiot.StageEval, zeiot.StageCharge} {
			stages[st] += res.Timings[st].Seconds()
		}
		total := res.Timings[zeiot.StageTotal].Seconds()
		o.set("exp."+id+"_s", total)
		plain += total

		reg := obs.NewRegistry()
		cfgRec := cfg.Clone()
		cfgRec.Recorder = reg
		resRec, got, err := runInProcess(ctx, ex, cfgRec)
		if err != nil {
			return nil, err
		}
		o.attempted++
		if !bytes.Equal(got, want) {
			o.fail("%s: result with a recorder attached differs from the result without", id)
		}
		withRec += resRec.Timings[zeiot.StageTotal].Seconds()
		addCounters(counters, resRec.Metrics)
	}
	for st, v := range stages {
		o.set("stage."+st+"_s", v)
	}
	o.set("obs.overhead_frac", withRec/plain-1)
	for k, v := range counters {
		o.set("counters."+k, v)
	}

	t := newTracer(fmt.Sprintf("%s/seed%d", name, seed))
	r := &replay{t: t, seed: seed, workers: e.procs}
	var err error
	t.within(kindRun, name, func() {
		for _, id := range exps {
			if err = ctx.Err(); err != nil {
				return
			}
			fn := r.experiment(id)
			if fn == nil {
				err = fmt.Errorf("no replay for %s", id)
				return
			}
			t.within(kindExp, id, func() { err = fn() })
			if err != nil {
				err = fmt.Errorf("replay %s: %w", id, err)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := t.write(e.tracePath(name, seed)); err != nil {
		return nil, err
	}
	r.metrics(o)
	if slices.Contains(exps, "e1") {
		o.set("wsn.route_ns", routeProbe())
	}
	if slices.Contains(exps, "e5") {
		allocs, err := featureAllocProbe(seed)
		if err != nil {
			return nil, err
		}
		o.set("csi.features_allocs", allocs)
	}
	o.set("error_rate", float64(o.failed)/float64(o.attempted))
	return o, nil
}

// runInProcess runs one experiment and returns the result with its
// `zeiotbench -json` bytes.
func runInProcess(ctx context.Context, ex zeiot.Experiment, cfg *zeiot.RunConfig) (*zeiot.Result, []byte, error) {
	res, err := ex.Run(ctx, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ex.ID, err)
	}
	b, err := encodeResult(res)
	return res, b, err
}

// counterSuffixes are the program's own cache counters, summed over every
// prefix an experiment records them under.
var counterSuffixes = []string{"route_cache_hits", "route_cache_misses", "plan_cache_hits", "plan_cache_misses"}

func addCounters(into map[string]float64, s *obs.Snapshot) {
	if s == nil {
		return
	}
	for _, suf := range counterSuffixes {
		for k, v := range s.Gauges {
			if strings.HasSuffix(k, suf) && !strings.HasPrefix(k, obs.WallTimePrefix) {
				into[suf] += v
			}
		}
		for k, v := range s.Counters {
			if strings.HasSuffix(k, suf) && !strings.HasPrefix(k, obs.WallTimePrefix) {
				into[suf] += float64(v)
			}
		}
	}
}

// replay repeats experiments' call sequences with spans around the calls
// into each layer. Stage spans follow the experiment harness's marks, so
// everything between two layer calls (slicing, sorting, result assembly)
// is stage self time, which trace.coverage exposes.
type replay struct {
	t       *tracer
	seed    uint64
	workers int

	nets          []*wsn.Network
	graphs        []*microdeep.Graph
	fitSamples    int
	fitAllocs     uint64
	gaitSamples   int
	loungeSamples int
	mlAllocs      uint64
}

func (r *replay) experiment(id string) func() error {
	return map[string]func() error{
		"e1": r.e1, "e2": r.e2, "e8": r.e8,
		"e3": r.e3, "e4": r.e4, "e5": r.e5,
	}[id]
}

func (r *replay) stage(name string, f func()) { r.t.within(kindStage, name, f) }
func (r *replay) layer(name string, f func()) { r.t.within(kindLayer, name, f) }

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (r *replay) topology(build func() *wsn.Network) *wsn.Network {
	var w *wsn.Network
	r.layer("wsn.topology", func() { w = build() })
	r.nets = append(r.nets, w)
	return w
}

func (r *replay) build(net *cnn.Network, w *wsn.Network, s microdeep.Strategy) (*microdeep.Model, error) {
	var m *microdeep.Model
	var err error
	r.layer("microdeep.build", func() { m, err = microdeep.Build(net, w, s) })
	if err == nil {
		r.graphs = append(r.graphs, m.Graph)
	}
	return m, err
}

// fitNet trains a plain CNN: the cnn layer's fit engine.
func (r *replay) fitNet(fit func(), epochs, n int) {
	before := mallocs()
	r.layer("cnn.fit", fit)
	r.fitAllocs += mallocs() - before
	r.fitSamples += epochs * n
}

// fitModel trains a MicroDeep model. Without local updates the model
// delegates to the CNN engine, so the span is cnn.fit; with per-node kernel
// replicas it is microdeep.fit.
func (r *replay) fitModel(m *microdeep.Model, train []cnn.Sample, epochs, batch int, opt *cnn.SGD, s *rng.Stream) {
	fit := func() { m.FitParallel(train, epochs, batch, r.workers, opt, s) }
	if m.LocalUpdate() {
		r.layer("microdeep.fit", fit)
		return
	}
	r.fitNet(fit, epochs, len(train))
}

func (r *replay) evaluate(net *cnn.Network, test []cnn.Sample) {
	r.layer("cnn.evaluate", func() { net.Evaluate(test) })
}

func (r *replay) costPerSample(m *microdeep.Model, sync bool) error {
	var err error
	r.layer("microdeep.cost_per_sample", func() { _, err = m.CostPerSample(sync) })
	return err
}

func split(samples []cnn.Sample) (train, test []cnn.Sample) {
	cut := len(samples) * 3 / 4
	return samples[:cut], samples[cut:]
}

// e1 replays RunE1FallCommCost: the gait campaign, then the optimal
// (coordinate, synchronized) and feasible (balanced, local-update) MicroDeep
// models, each trained, evaluated and charged.
func (r *replay) e1() error {
	root := rng.New(r.seed)
	mod := modality.NewGait()
	cfg := mod.Cfg
	var samples []cnn.Sample
	var err error
	r.stage(zeiot.StageDataset, func() {
		r.layer("modality.gait", func() { samples, err = mod.Campaign(1.0, rng.New(r.seed), root.Split("balance")) })
	})
	if err != nil {
		return err
	}
	r.gaitSamples += len(samples)
	train, test := split(samples)
	in := []int{cfg.WindowFrames, cfg.Rows, cfg.Cols}

	var w *wsn.Network
	var mOpt *microdeep.Model
	sOpt := root.Split("optimal")
	r.stage(zeiot.StageTrain, func() {
		w = r.topology(func() *wsn.Network { return wsn.NewGrid(cfg.Rows, cfg.Cols, 1) })
		net := cnn.NewNetwork(in,
			cnn.NewConv2D(cfg.WindowFrames, 8, 3, 3, 1, 1, sOpt.Split("c")), cnn.NewReLU(), cnn.NewMaxPool2D(2, 2),
			cnn.NewFlatten(), cnn.NewDense(8*4*4, 32, sOpt.Split("d1")), cnn.NewReLU(), cnn.NewDense(32, 2, sOpt.Split("d2")))
		if mOpt, err = r.build(net, w, microdeep.StrategyCoordinate); err != nil {
			return
		}
		r.fitModel(mOpt, train, 8, 16, cnn.NewSGD(0.02, 0.9), sOpt.Split("fit"))
	})
	if err != nil {
		return err
	}
	r.stage(zeiot.StageEval, func() { r.evaluate(mOpt.Net, test) })
	r.stage(zeiot.StageCharge, func() {
		if err = r.costPerSample(mOpt, false); err == nil {
			err = r.costPerSample(mOpt, true)
		}
	})
	if err != nil {
		return err
	}

	var mFea *microdeep.Model
	sFea := root.Split("feasible")
	r.stage(zeiot.StageTrain, func() {
		net := cnn.NewNetwork(in,
			cnn.NewConv2D(cfg.WindowFrames, 6, 3, 3, 1, 1, sFea.Split("c")), cnn.NewReLU(), cnn.NewMaxPool2D(2, 2),
			cnn.NewFlatten(), cnn.NewDense(6*4*4, 24, sFea.Split("d1")), cnn.NewReLU(), cnn.NewDense(24, 2, sFea.Split("d2")))
		if mFea, err = r.build(net, w, microdeep.StrategyBalanced); err != nil {
			return
		}
		r.layer("microdeep.build", mFea.EnableLocalUpdate)
		r.fitModel(mFea, train, 12, 16, cnn.NewSGD(0.02, 0.9), sFea.Split("fit"))
	})
	if err != nil {
		return err
	}
	r.stage(zeiot.StageEval, func() { r.evaluate(mFea.Net, test) })
	r.stage(zeiot.StageCharge, func() { err = r.costPerSample(mFea, false) })
	return err
}

// loungeNet and loungeWSN rebuild e2's lounge CNN and 5×10 sensor grid.
func loungeNet(s *rng.Stream) *cnn.Network {
	return cnn.NewNetwork([]int{1, 17, 25},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")), cnn.NewReLU(), cnn.NewMaxPool2D(3, 3),
		cnn.NewFlatten(), cnn.NewDense(4*5*8, 16, s.Split("d1")), cnn.NewReLU(), cnn.NewDense(16, 2, s.Split("d2")))
}

func loungeWSN() *wsn.Network { return wsn.NewGrid(5, 10, 1) }

// e2 replays RunE2Lounge: the lounge campaign, three standard CNNs, three
// local-update MicroDeep models, then the peak-traffic charges and the
// coordinate-assignment ablation.
func (r *replay) e2() error {
	const repeats = 3
	root := rng.New(r.seed)
	mod := modality.NewLounge()
	mod.Cfg.Samples = 1200
	var samples []cnn.Sample
	var err error
	r.stage(zeiot.StageDataset, func() {
		r.layer("modality.lounge", func() { samples, err = mod.Campaign(rng.New(r.seed)) })
	})
	if err != nil {
		return err
	}
	r.loungeSamples += len(samples)
	train, test := split(samples)

	for i := 0; i < repeats; i++ {
		s := root.Split(fmt.Sprintf("std-%d", i))
		var net *cnn.Network
		r.stage(zeiot.StageTrain, func() {
			net = loungeNet(s)
			r.fitNet(func() { net.FitParallel(train, 8, 16, r.workers, cnn.NewSGD(0.02, 0.9), s.Split("fit")) }, 8, len(train))
		})
		r.stage(zeiot.StageEval, func() { r.evaluate(net, test) })
	}

	var w *wsn.Network
	var md *microdeep.Model
	for i := 0; i < repeats; i++ {
		s := root.Split(fmt.Sprintf("microdeep-%d", i))
		var m *microdeep.Model
		r.stage(zeiot.StageTrain, func() {
			if w == nil {
				w = r.topology(loungeWSN)
			}
			if m, err = r.build(loungeNet(s), w, microdeep.StrategyBalanced); err != nil {
				return
			}
			r.layer("microdeep.build", m.EnableLocalUpdate)
			r.fitModel(m, train, 12, 16, cnn.NewSGD(0.01, 0.9), s.Split("fit"))
		})
		if err != nil {
			return err
		}
		r.stage(zeiot.StageEval, func() { r.evaluate(m.Net, test) })
		md = m
	}

	r.stage(zeiot.StageCharge, func() {
		w.ResetCounters()
		r.layer("microdeep.charge", func() { _, err = microdeep.ChargeForward(md.Graph, md.Assign, w) })
		if err != nil {
			return
		}
		if err = r.costPerSample(md, false); err != nil {
			return
		}
		w.ResetCounters()
		sink := w.Live()[len(w.Live())/2]
		r.layer("microdeep.charge", func() { _, err = microdeep.ChargeCentralized(md.Graph, w, sink) })
		if err != nil {
			return
		}
		coordNet := loungeNet(root.Split("coord"))
		cw := r.topology(loungeWSN)
		var coord *microdeep.Model
		if coord, err = r.build(coordNet, cw, microdeep.StrategyCoordinate); err != nil {
			return
		}
		if err = r.costPerSample(coord, false); err != nil {
			return
		}
		err = r.costPerSample(md, true)
	})
	return err
}

// e8 replays RunE8Resilience: train the lounge model once, then run
// distributed inference (Executor.Forward) with growing corner failures,
// as-is and after reassigning onto the survivors.
func (r *replay) e8() error {
	root := rng.New(r.seed)
	mod := modality.NewLounge()
	mod.Cfg.Samples = 700
	mod.Cfg.NoiseC = 0.8
	var samples []cnn.Sample
	var err error
	r.stage(zeiot.StageDataset, func() {
		r.layer("modality.lounge", func() { samples, err = mod.Campaign(rng.New(r.seed)) })
	})
	if err != nil {
		return err
	}
	r.loungeSamples += len(samples)
	train, test := split(samples)

	sNet := root.Split("net")
	var w *wsn.Network
	var model *microdeep.Model
	r.stage(zeiot.StageTrain, func() {
		net := loungeNet(sNet)
		w = r.topology(loungeWSN)
		if model, err = r.build(net, w, microdeep.StrategyBalanced); err != nil {
			return
		}
		r.fitModel(model, train, 6, 16, cnn.NewSGD(0.02, 0.9), sNet.Split("fit"))
	})
	if err != nil {
		return err
	}

	forward := func(assign *microdeep.Assignment, dead, deadSites map[int]bool) error {
		ex := microdeep.NewExecutor(model.Graph)
		ex.Assign, ex.DeadNodes, ex.DeadSites = assign, dead, deadSites
		var ferr error
		r.layer("microdeep.forward", func() {
			for _, s := range test {
				if _, ferr = ex.Forward(s.Input); ferr != nil {
					return
				}
			}
		})
		return ferr
	}
	r.stage(zeiot.StageEval, func() {
		lo, hi := fieldCorners(w)
		corners := []geom.Point{lo, {X: hi.X, Y: lo.Y}, {X: lo.X, Y: hi.Y}, hi}
		for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
			k := int(frac * float64(w.NumNodes()))
			for _, corner := range corners {
				dead := make(map[int]bool, k)
				for _, n := range nearest(w, corner)[:k] {
					dead[n] = true
				}
				if err = forward(&model.Assign, dead, nil); err != nil {
					return
				}
				if k == 0 {
					continue
				}
				wFail := r.topology(func() *wsn.Network {
					wf := loungeWSN()
					for n := range dead {
						wf.Fail(n)
					}
					if !wf.Connected() {
						err = fmt.Errorf("failure pattern partitions the WSN")
					}
					return wf
				})
				if err != nil {
					return
				}
				var assign microdeep.Assignment
				r.layer("microdeep.build", func() {
					assign, err = microdeep.AssignBalanced(model.Graph, wFail, microdeep.DefaultBalanceOptions())
				})
				if err != nil {
					return
				}
				deadSites := make(map[int]bool)
				for _, sid := range model.Graph.Stages[0].Sites {
					if dead[model.Assign.NodeOf[sid]] {
						deadSites[sid] = true
					}
				}
				if err = forward(&assign, nil, deadSites); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	})
	return err
}

// fieldCorners returns the bounding box of the node field.
func fieldCorners(w *wsn.Network) (lo, hi geom.Point) {
	lo, hi = w.Node(0).Pos, w.Node(0).Pos
	for _, nd := range w.Nodes() {
		lo.X, lo.Y = min(lo.X, nd.Pos.X), min(lo.Y, nd.Pos.Y)
		hi.X, hi.Y = max(hi.X, nd.Pos.X), max(hi.Y, nd.Pos.Y)
	}
	return lo, hi
}

// nearest orders the nodes by distance to p, ties by id.
func nearest(w *wsn.Network, p geom.Point) []int {
	order := make([]int, w.NumNodes())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := geom.Dist(w.Node(order[i]).Pos, p), geom.Dist(w.Node(order[j]).Pos, p)
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

// e3 replays RunE3TrainCar: calibrate the train-car estimator, then position
// users and grade congestion over twelve rides.
func (r *replay) e3() error {
	root := rng.New(r.seed)
	cfg := congestion.DefaultTrainConfig()
	var est *congestion.Estimator
	var err error
	r.stage(zeiot.StageTrain, func() {
		r.layer("congestion.calibrate", func() { est, err = congestion.Calibrate(cfg, 12, root.Split("calibrate")) })
	})
	if err != nil {
		return err
	}
	stream := root.Split("eval")
	r.stage(zeiot.StageEval, func() {
		r.layer("congestion.traincar_eval", func() {
			cm := ml.NewConfusionMatrix(3)
			for trial := 0; trial < 12; trial++ {
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
				var sc congestion.Scenario
				if sc, err = congestion.Generate(cfg, perCar, stream); err != nil {
					return
				}
				meas := congestion.Measure(sc, stream)
				cars, rel := est.Positions(meas)
				for c, lvl := range est.CarCongestion(meas, cars, rel) {
					cm.Add(int(cfg.LevelFor(perCar[c])), int(lvl))
				}
			}
		})
	})
	return err
}

// e4 replays RunE4RoomCount: the fused estimator, the single-sweep
// ablation, and the links-only and surrounding-only estimators.
func (r *replay) e4() error {
	root := rng.New(r.seed)
	base := congestion.DefaultRoomConfig()
	one, links, sur := base, base, base
	one.Sweeps = 1
	links.Mode = congestion.RoomLinksOnly
	sur.Mode = congestion.RoomSurroundingOnly
	var est *congestion.RoomEstimator
	var err error
	trainRoom := func(cfg congestion.RoomConfig, key string) {
		r.layer("congestion.train_room", func() { est, err = congestion.TrainRoomEstimator(cfg, 60, root.Split(key)) })
	}
	evalRoom := func(key string) {
		r.layer("congestion.evaluate_room", func() { congestion.EvaluateRoom(est, 25, root.Split(key)) })
	}
	type variant struct {
		cfg         congestion.RoomConfig
		train, eval string
	}
	for _, v := range []variant{{base, "train", "eval"}, {one, "train1", "eval1"}} {
		r.stage(zeiot.StageTrain, func() { trainRoom(v.cfg, v.train) })
		if err != nil {
			return err
		}
		r.stage(zeiot.StageEval, func() { evalRoom(v.eval) })
	}
	r.stage(zeiot.StageEval, func() {
		for _, v := range []variant{{links, "trainL", "evalL"}, {sur, "trainS", "evalS"}} {
			if trainRoom(v.cfg, v.train); err != nil {
				return
			}
			evalRoom(v.eval)
		}
	})
	return err
}

// e5 replays RunE5CSILocalization: per behaviour/antenna pattern, CSI
// snapshots and their 624 beamforming-angle features, then k-NN
// cross-validation; then the classifier ablation on the first pattern.
func (r *replay) e5() error {
	const perPosition = 32
	root := rng.New(r.seed)
	positions := csi.SevenPositions()
	var err error
	collect := func(room csi.SceneConfig, stream *rng.Stream) ml.Dataset {
		var data ml.Dataset
		r.stage(zeiot.StageDataset, func() {
			for posIdx, pos := range positions {
				for s := 0; s < perPosition; s++ {
					var ch []csi.Matrix
					var feat []float64
					r.layer("csi.snapshot", func() { ch = room.Snapshot(pos, stream) })
					r.layer("csi.features", func() { feat, err = room.Feedback.Features(ch) })
					if err != nil {
						return
					}
					data.X = append(data.X, feat)
					data.Y = append(data.Y, posIdx)
				}
			}
		})
		return data
	}
	cv := func(name string, t ml.Trainer, data ml.Dataset, s *rng.Stream) {
		before := mallocs()
		r.layer("ml.cv."+name, func() { _, err = ml.CrossValidate(t, data, 4, s) })
		r.mlAllocs += mallocs() - before
	}
	for pi, pattern := range csi.PaperPatterns() {
		room := csi.DefaultRoom(pattern)
		stream := root.Split(fmt.Sprintf("pattern-%d", pi))
		data := collect(room, stream)
		if err != nil {
			return err
		}
		r.stage(zeiot.StageEval, func() { cv("knn", ml.KNN{K: 3}, data, stream.Split("cv")) })
		if err != nil {
			return err
		}
	}
	room := csi.DefaultRoom(csi.PaperPatterns()[0])
	ablStream := root.Split("classifier-ablation")
	abl := collect(room, ablStream)
	if err != nil {
		return err
	}
	r.stage(zeiot.StageEval, func() {
		for _, c := range []struct {
			metric, key string
			trainer     ml.Trainer
		}{
			{"knn", "knn(k=3)", ml.KNN{K: 3}},
			{"gaussian-nb", "gaussian-nb", ml.GaussianNB{}},
			{"softmax", "softmax", ml.Softmax{LR: 0.3, Epochs: 150, Seed: r.seed}},
		} {
			if cv(c.metric, c.trainer, abl, ablStream.Split("cv-"+c.key)); err != nil {
				return
			}
		}
	})
	return err
}

// metrics turns the replay's spans and counts into per-layer metrics.
func (r *replay) metrics(o *outcome) {
	self := selfTimes(r.t.spans)
	secs, calls := selfByName(r.t.spans, self, kindLayer)
	for _, name := range []string{
		"cnn.fit", "cnn.evaluate", "microdeep.build", "microdeep.fit", "microdeep.cost_per_sample",
		"microdeep.charge", "microdeep.forward", "wsn.topology",
		"congestion.calibrate", "congestion.traincar_eval", "congestion.train_room", "congestion.evaluate_room",
	} {
		o.set(name+"_s", secs[name])
	}
	for _, name := range []string{"knn", "gaussian-nb", "softmax"} {
		o.set("ml.cv_s."+name, secs["ml.cv."+name])
	}
	if r.fitSamples > 0 {
		o.set("cnn.fit_samples_per_s", float64(r.fitSamples)/secs["cnn.fit"])
		o.set("cnn.fit_allocs_per_sample", float64(r.fitAllocs)/float64(r.fitSamples))
	}
	if r.gaitSamples > 0 {
		o.set("modality.gait.samples_per_s", float64(r.gaitSamples)/secs["modality.gait"])
	}
	if r.loungeSamples > 0 {
		o.set("modality.lounge.samples_per_s", float64(r.loungeSamples)/secs["modality.lounge"])
	}
	if n := calls["csi.snapshot"]; n > 0 {
		o.set("csi.snapshot_us", 1e6*secs["csi.snapshot"]/float64(n))
		o.set("csi.features_us", 1e6*secs["csi.features"]/float64(calls["csi.features"]))
	}
	o.set("ml.allocs", float64(r.mlAllocs))

	var planHits, planMisses, routeHits, routeMisses, rebuilds uint64
	for _, g := range r.graphs {
		h, m := g.PlanCacheStats()
		planHits, planMisses = planHits+h, planMisses+m
	}
	for _, w := range r.nets {
		h, m := w.RouteCacheStats()
		routeHits, routeMisses = routeHits+h, routeMisses+m
		full, shard, overlay := w.RebuildStats()
		rebuilds += full + shard + overlay
	}
	if planHits+planMisses > 0 {
		o.set("microdeep.plan_cache_hit_ratio", float64(planHits)/float64(planHits+planMisses))
	}
	if routeHits+routeMisses > 0 {
		o.set("wsn.route_cache_hit_ratio", float64(routeHits)/float64(routeHits+routeMisses))
	}
	if len(r.nets) > 0 {
		o.set("wsn.rebuilds", float64(rebuilds))
	}
	o.set("trace.coverage", coverage(r.t.spans, self, kindStage))
}

// routeProbe times wsn.Network.Route over every ordered node pair of fresh
// copies of the two topologies the pipeline routes on (e1's 8×8 gait array
// and the 5×10 lounge grid): one sweep that fills the route memo and one
// that reads it. It returns nanoseconds per call.
func routeProbe() float64 {
	gait := modality.NewGait().Cfg
	calls := 0
	var spent time.Duration
	for _, w := range []*wsn.Network{wsn.NewGrid(gait.Rows, gait.Cols, 1), loungeWSN()} {
		n := w.NumNodes()
		for sweep := 0; sweep < 2; sweep++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					w.Route(i, j)
				}
			}
			spent += time.Since(t0)
			calls += n * n
		}
	}
	return float64(spent.Nanoseconds()) / float64(calls)
}

// featureAllocProbe counts heap allocations per csi Features call over a
// batch of pre-drawn snapshots, so no snapshot allocation is counted.
func featureAllocProbe(seed uint64) (float64, error) {
	const n = 64
	room := csi.DefaultRoom(csi.PaperPatterns()[0])
	stream := rng.New(seed).Split("feature-alloc-probe")
	pos := csi.SevenPositions()
	snaps := make([][]csi.Matrix, n)
	for i := range snaps {
		snaps[i] = room.Snapshot(pos[i%len(pos)], stream)
	}
	before := mallocs()
	for _, ch := range snaps {
		if _, err := room.Feedback.Features(ch); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-before) / n, nil
}
