package zeiot

import (
	"context"
	"fmt"
	"sort"

	"zeiot/internal/cnn"
	"zeiot/internal/dataset"
	"zeiot/internal/geom"
	"zeiot/internal/microdeep"
	"zeiot/internal/obs"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// RunE8Resilience implements the §V research challenge the paper states
// but does not evaluate: "a part of tiny IoT devices may be broken — the
// development of resilient distributed machine learning mechanisms in the
// environments containing such broken IoT devices". We train the lounge
// CNN, then kill growing fractions of nodes and measure accuracy (i) with
// the assignment left as-is (dead sites output zeros) and (ii) after
// reassigning the surviving computation, so only the dead sensors' inputs
// are lost.
//
// With fault injection enabled (zeiotbench -loss) the experiment gains the
// failure mode real backscatter links actually have — marginal, lossy
// links rather than clean node death: a sweep over per-link drop rates
// measuring accuracy and peak per-sample comm cost with the reliable
// transport's retries on and off. Undelivered transfers degrade gracefully
// to zero inputs at the consuming site.
func RunE8Resilience(ctx context.Context, rc *RunConfig) (*Result, error) {
	h, err := beginRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	seed := h.cfg.Seed
	root := rng.New(seed)
	cfg := dataset.DefaultLoungeConfig()
	cfg.Seed = seed
	cfg.Samples = h.cfg.scaled(700)
	cfg.NoiseC = 0.8
	samples, err := dataset.GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	cut := len(samples) * 3 / 4
	train, test := samples[:cut], samples[cut:]
	h.mark(StageDataset)

	sNet := root.Split("net")
	net := loungeNet(sNet)
	w := loungeWSN()
	model, err := microdeep.Build(net, w, microdeep.StrategyBalanced)
	if err != nil {
		return nil, err
	}
	model.SetRecorder(h.cfg.Recorder, "model_", test)
	model.FitParallel(train, 6, 16, h.cfg.workers(), cnn.NewSGD(0.02, 0.9), sNet.Split("fit"))
	h.mark(StageTrain)

	// accuracy runs the test set through ex in one batch and returns the
	// share it classifies correctly.
	inputs := make([]*tensor.Tensor, len(test))
	for i, s := range test {
		inputs[i] = s.Input
	}
	accuracy := func(ex *microdeep.Executor) (float64, error) {
		outs, err := ex.ForwardBatch(inputs)
		if err != nil {
			return 0, err
		}
		correct := 0
		for i, s := range test {
			if outs[i].Argmax() == s.Label {
				correct++
			}
		}
		return float64(correct) / float64(len(test)), nil
	}

	res := &Result{
		ID:         "e8",
		Title:      "Accuracy under broken devices, with and without reassignment",
		PaperClaim: "open challenge in §V (resilient distributed ML with broken devices)",
		Header:     []string{"failed nodes", "accuracy (as-is)", "accuracy (reassigned)"},
		Summary:    map[string]float64{},
	}
	// Failures are spatially correlated — a region losing its energy
	// harvest takes every device in it down together — so the k failed
	// nodes are those nearest a corner of the field. Results average over
	// all four corners: which region the trained model happens to lean on
	// varies with the training draw.
	minP, maxP := fieldCorners(w)
	corners := []geom.Point{
		minP,
		{X: maxP.X, Y: minP.Y},
		{X: minP.X, Y: maxP.Y},
		maxP,
	}
	orderFrom := func(corner geom.Point) []int {
		order := make([]int, w.NumNodes())
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			di := geom.Dist(w.Node(order[i]).Pos, corner)
			dj := geom.Dist(w.Node(order[j]).Pos, corner)
			if di != dj {
				return di < dj
			}
			return order[i] < order[j]
		})
		return order
	}
	// patterns[f] holds fraction f's failure patterns, one per corner. With
	// no failed node every corner gives the same pattern, so it is scored
	// once and counted for all four corners.
	type pattern struct {
		dead             map[int]bool
		asIs, reassigned float64
	}
	fractions := []float64{0, 0.05, 0.1, 0.2, 0.3}
	patterns := make([][]pattern, len(fractions))
	var tasks []*pattern
	for f, frac := range fractions {
		k := int(frac * float64(w.NumNodes()))
		for _, corner := range corners {
			dead := make(map[int]bool, k)
			for _, n := range orderFrom(corner)[:k] {
				dead[n] = true
			}
			patterns[f] = append(patterns[f], pattern{dead: dead})
			if k == 0 {
				break
			}
		}
		for i := range patterns[f] {
			tasks = append(tasks, &patterns[f][i])
		}
	}
	// The patterns evaluate side by side, each on its own executor (an
	// Executor is not safe for concurrent use; the model is only read).
	err = h.fanOut(len(tasks), func(i, _ int, _ obs.Recorder) error {
		p := tasks[i]
		ex := microdeep.NewExecutor(model.Graph)
		ex.Assign = &model.Assign
		ex.DeadNodes = p.dead
		var err error
		if p.asIs, err = accuracy(ex); err != nil {
			return err
		}
		p.reassigned = p.asIs
		if len(p.dead) == 0 {
			return nil
		}
		// Reassignment: recompute the balanced assignment on the surviving
		// network; dead sensors' inputs stay lost but every unit runs.
		wFail := loungeWSN()
		for n := range p.dead {
			wFail.Fail(n)
		}
		if !wFail.Connected() {
			return fmt.Errorf("zeiot: failure pattern partitions the WSN")
		}
		newAssign, err := microdeep.AssignBalanced(model.Graph, wFail, microdeep.DefaultBalanceOptions())
		if err != nil {
			return err
		}
		// Under the new assignment every compute site moved to a live node,
		// but the dead sensors' readings are still gone: silence the input
		// sites whose original sensor (per the pre-failure assignment) died.
		deadSites := make(map[int]bool)
		for _, sid := range model.Graph.Stages[0].Sites {
			if p.dead[model.Assign.NodeOf[sid]] {
				deadSites[sid] = true
			}
		}
		ex.Assign = &newAssign
		ex.DeadNodes = nil
		ex.DeadSites = deadSites
		p.reassigned, err = accuracy(ex)
		return err
	})
	if err != nil {
		return nil, err
	}
	for f, frac := range fractions {
		k := int(frac * float64(w.NumNodes()))
		asIsSum, reassignedSum := 0.0, 0.0
		for c := range corners {
			p := patterns[f][min(c, len(patterns[f])-1)]
			asIsSum += p.asIs
			reassignedSum += p.reassigned
		}
		asIs := asIsSum / float64(len(corners))
		reassigned := reassignedSum / float64(len(corners))
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d (%.0f%%)", k, 100*frac), pct(asIs), pct(reassigned),
		})
		res.Summary[fmt.Sprintf("acc_asis_%.0f", 100*frac)] = asIs
		res.Summary[fmt.Sprintf("acc_reassigned_%.0f", 100*frac)] = reassigned
	}
	res.Notes = fmt.Sprintf("%d-node WSN, %d test samples, averaged over 4 failure corners; reassignment recomputes the balanced placement on survivors", w.NumNodes(), len(test))
	h.mark(StageEval)

	// Loss-rate sweep (only with fault injection enabled, so the default
	// run stays byte-identical to the loss-free implementation): the same
	// trained model evaluated through the lossy reliable transport at
	// growing per-link drop rates, with retries on and off. Accuracy shows
	// the graceful degradation of zeroed undelivered inputs; the peak
	// per-node comm cost per sample counts every transmission attempt, so
	// retries buy accuracy with visible energy. This sweep stays on one
	// executor: the per-link fault streams advance with every transfer, so
	// the outcomes depend on the order the samples run in.
	if lc := h.cfg.Loss; lc.Enabled {
		evaluateLossy := func(rate float64, retries int, recPrefix string) (float64, float64, error) {
			wLoss := loungeWSN()
			ex := microdeep.NewExecutor(model.Graph)
			ex.Assign = &model.Assign
			ex.Net = wLoss
			ex.Faults = faultModelFor(seed, rate, lc.Burst)
			ex.Retry = retryPolicyFor(retries)
			acc, err := accuracy(ex)
			if err != nil {
				return 0, 0, err
			}
			ex.Stats.Record(h.cfg.Recorder, recPrefix)
			cost := float64(wLoss.MaxCost()) / float64(len(test))
			return acc, cost, nil
		}
		for _, rate := range []float64{0.05, 0.1, 0.2, 0.3} {
			pctKey := fmt.Sprintf("%.0f", 100*rate)
			accRetry, costRetry, err := evaluateLossy(rate, lc.MaxRetries, "loss_"+pctKey+"_retry_")
			if err != nil {
				return nil, err
			}
			accBare, costBare, err := evaluateLossy(rate, 0, "loss_"+pctKey+"_noretry_")
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("loss %s%%", pctKey),
				pct(accRetry), pct(accBare),
				fmt.Sprintf("retry cost %.1f", costRetry),
				fmt.Sprintf("no-retry cost %.1f", costBare),
			})
			res.Summary["acc_loss_"+pctKey+"_retry"] = accRetry
			res.Summary["acc_loss_"+pctKey+"_noretry"] = accBare
			res.Summary["cost_loss_"+pctKey+"_retry"] = costRetry
			res.Summary["cost_loss_"+pctKey+"_noretry"] = costBare
		}
		mode := "independent drops"
		if lc.Burst {
			mode = "Gilbert-Elliott bursts"
		}
		res.Notes += fmt.Sprintf("; loss sweep: %s, reliable transport with ≤%d retries/hop vs none, loss rows read (acc retry, acc no-retry, peak cost/sample)", mode, lc.MaxRetries)
		h.mark(StageEval)
	}
	return h.finish(res), nil
}

// fieldCorners returns the bounding box of the node field.
func fieldCorners(w *wsn.Network) (minP, maxP geom.Point) {
	minP = w.Node(0).Pos
	maxP = w.Node(0).Pos
	for _, nd := range w.Nodes() {
		if nd.Pos.X < minP.X {
			minP.X = nd.Pos.X
		}
		if nd.Pos.Y < minP.Y {
			minP.Y = nd.Pos.Y
		}
		if nd.Pos.X > maxP.X {
			maxP.X = nd.Pos.X
		}
		if nd.Pos.Y > maxP.Y {
			maxP.Y = nd.Pos.Y
		}
	}
	return minP, maxP
}
