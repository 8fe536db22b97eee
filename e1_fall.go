package zeiot

import (
	"context"
	"fmt"

	"zeiot/internal/cnn"
	"zeiot/internal/microdeep"
	"zeiot/internal/modality"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// RunE1FallCommCost regenerates Fig. 10: the fall-detection CNN on the
// IR-sensor array, comparing (a) the accuracy-optimal parameter set with
// the natural coordinate assignment against (b) the feasible parameter set
// with the heuristic balanced assignment and local weight updates.
// The paper reports 91.875% vs 89.7275% accuracy and max communication
// cost 360 vs 210 (−40%).
func RunE1FallCommCost(ctx context.Context, rc *RunConfig) (*Result, error) {
	h, err := beginRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	seed := h.cfg.Seed
	root := rng.New(seed)
	// The gait modality at experiment grade (0.55 sensor noise, as on the
	// real film array). The campaign stream is a fresh root-seeded stream
	// (the historical derivation), while the window balancing draws from the
	// run's named split.
	mod := modality.NewGait()
	mod.Cfg.Streams = h.cfg.scaled(mod.Cfg.Streams)
	cfg := mod.Cfg
	samples, err := mod.Campaign(1.0, rng.New(seed), root.Split("balance"))
	if err != nil {
		return nil, err
	}
	cut := len(samples) * 3 / 4
	train, test := samples[:cut], samples[cut:]
	h.mark(StageDataset)

	w := wsn.NewGrid(cfg.Rows, cfg.Cols, 1)
	repeats := h.cfg.repeatsOr(1)

	// Every repeat of both arms trains side by side (h.fitAll). Building a
	// model routes on the shared grid and every Split advances its parent
	// stream, so the models and their fit streams are made here, in order.
	var jobs []fitJob
	var mOpt, mFea *microdeep.Model // each arm's last repeat
	// (a) optimal parameter set: bigger CNN, coordinate assignment,
	// synchronized (exact) training.
	for r := range repeats {
		sOpt := repeatStream(root, "optimal", r, repeats)
		optimal := cnn.NewNetwork([]int{cfg.WindowFrames, cfg.Rows, cfg.Cols},
			cnn.NewConv2D(cfg.WindowFrames, 8, 3, 3, 1, 1, sOpt.Split("c")),
			cnn.NewReLU(),
			cnn.NewMaxPool2D(2, 2),
			cnn.NewFlatten(),
			cnn.NewDense(8*4*4, 32, sOpt.Split("d1")),
			cnn.NewReLU(),
			cnn.NewDense(32, 2, sOpt.Split("d2")),
		)
		m, err := microdeep.Build(optimal, w, microdeep.StrategyCoordinate)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, fitJob{m, "optimal_", 8, cnn.NewSGD(0.02, 0.9), sOpt.Split("fit")})
		mOpt = m
	}
	// (b) feasible parameter set: WSN-sized CNN, balanced heuristic,
	// local weight updates (no kernel synchronization traffic).
	for r := range repeats {
		sFea := repeatStream(root, "feasible", r, repeats)
		feasible := cnn.NewNetwork([]int{cfg.WindowFrames, cfg.Rows, cfg.Cols},
			cnn.NewConv2D(cfg.WindowFrames, 6, 3, 3, 1, 1, sFea.Split("c")),
			cnn.NewReLU(),
			cnn.NewMaxPool2D(2, 2),
			cnn.NewFlatten(),
			cnn.NewDense(6*4*4, 24, sFea.Split("d1")),
			cnn.NewReLU(),
			cnn.NewDense(24, 2, sFea.Split("d2")),
		)
		m, err := microdeep.Build(feasible, w, microdeep.StrategyBalanced)
		if err != nil {
			return nil, err
		}
		m.EnableLocalUpdate()
		jobs = append(jobs, fitJob{m, "feasible_", 12, cnn.NewSGD(0.02, 0.9), sFea.Split("fit")})
		mFea = m
	}
	accs, err := h.fitAll(jobs, train, test)
	if err != nil {
		return nil, err
	}
	accOpt, accFea := mean(accs[:repeats]), mean(accs[repeats:])

	// The Fig. 10 cost counts the per-sample forward+backward traffic;
	// weight-synchronization traffic is per training step and reported
	// separately below.
	costOpt, err := mOpt.CostPerSample(false)
	if err != nil {
		return nil, err
	}
	syncOpt, err := mOpt.CostPerSample(true)
	if err != nil {
		return nil, err
	}
	costFea, err := mFea.CostPerSample(false)
	if err != nil {
		return nil, err
	}
	h.mark(StageCharge)

	h.observeWSN("wsn_", w)
	h.observePlanCache("optimal_", mOpt.Graph)
	h.observePlanCache("feasible_", mFea.Graph)

	reduction := 1 - float64(costFea.Max)/float64(costOpt.Max)
	res := &Result{
		ID:         "e1",
		Title:      "Fall detection: per-node communication cost and accuracy",
		PaperClaim: "optimal 91.875%/max 360 vs heuristic 89.73%/max 210 (-40%)",
		Header:     []string{"setting", "accuracy", "max cost", "mean cost", "total cost", "max units/node"},
		Summary: map[string]float64{
			"acc_optimal":    accOpt,
			"acc_feasible":   accFea,
			"max_cost_opt":   float64(costOpt.Max),
			"max_cost_fea":   float64(costFea.Max),
			"cost_reduction": reduction,
			"windows":        float64(len(samples)),
		},
		Notes: fmt.Sprintf("%d streams, %d balanced windows, %d-node array; replica divergence %.4f",
			cfg.Streams, len(samples), w.NumNodes(), mFea.ReplicaDivergence()),
	}
	maxUnits := func(m *microdeep.Model) int {
		units := microdeep.UnitsPerNode(m.Graph, m.Assign, w.NumNodes())
		best := 0
		for _, u := range units {
			if u > best {
				best = u
			}
		}
		return best
	}
	res.Rows = append(res.Rows,
		[]string{"(a) optimal + coordinate", pct(accOpt), fi(costOpt.Max), f1(costOpt.Mean), fi(costOpt.Total), fi(maxUnits(mOpt))},
		[]string{"(b) feasible + heuristic", pct(accFea), fi(costFea.Max), f1(costFea.Mean), fi(costFea.Total), fi(maxUnits(mFea))},
		[]string{"reduction", pct(accOpt - accFea), pct(reduction), "", "", ""},
		[]string{"(a) + weight sync / step", "", fi(syncOpt.Max), "", fi(syncOpt.Total), ""},
		[]string{"(b) local updates / step", "", fi(costFea.Max), "", fi(costFea.Total), ""},
	)
	res.Summary["sync_max_cost_opt"] = float64(syncOpt.Max)

	// Optional int8 accuracy-vs-cost row: how the optimal model fares under
	// fixed-point inference (the arithmetic a zero-energy node can afford).
	// Runs strictly after the float results above, so default summaries keep
	// their bytes.
	if h.cfg.Quantize {
		qacc, agree, err := h.quantEval("optimal_", mOpt.Net, train, test)
		if err != nil {
			return nil, err
		}
		h.mark(StageEval)
		res.Rows = append(res.Rows,
			[]string{"(a) optimal, int8 inference", pct(qacc), fi(costOpt.Max), "", "", ""})
		res.Summary["acc_optimal_quant"] = qacc
		res.Summary["quant_agreement"] = agree
	}
	return h.finish(res), nil
}
