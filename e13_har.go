package zeiot

import (
	"context"
	"fmt"

	"zeiot/internal/cnn"
	"zeiot/internal/har"
	"zeiot/internal/ml"
	"zeiot/internal/modality"
	"zeiot/internal/rng"
)

// RunE13AthleteHAR implements use case (ii) of §III.C — "grasping
// activities of athletes" — on zero-energy hardware: a worn bank of spring
// accelerometers with staggered resonances backscatters 1-bit chatter
// states, and a classifier over the per-window chatter rates recognizes
// the activity. The paper sketches this qualitatively ("several types of
// ultra-low power accelerometers using environmental power"); we build and
// score it.
func RunE13AthleteHAR(ctx context.Context, rc *RunConfig) (*Result, error) {
	h, err := beginRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	seed := h.cfg.Seed
	root := rng.New(seed)
	// The HAR modality adapter; its campaign path reproduces the historical
	// har.GenerateDataset feature matrices byte-for-byte.
	mod := modality.NewHAR()
	cfg := mod.Cfg
	evalWindows := h.cfg.scaled(12)
	recognizer, err := har.Train(cfg, h.cfg.scaled(16), root.Split("train"))
	if err != nil {
		return nil, err
	}
	h.mark(StageTrain)
	cm, err := recognizer.Evaluate(evalWindows, root.Split("eval"))
	if err != nil {
		return nil, err
	}
	h.mark(StageEval)
	res := &Result{
		ID:         "e13",
		Title:      "Athlete activity recognition on zero-energy resonator bank",
		PaperClaim: "use case (ii), qualitative — implemented with spring-accelerometer chatter features",
		Header:     []string{"activity", "recall", "F1"},
		Summary: map[string]float64{
			"accuracy": cm.Accuracy(),
			"macro_f1": cm.MacroF1(),
		},
		Notes: fmt.Sprintf("%d-resonator bank (%v Hz), %d s windows, k-NN on chatter rates; %d test windows per class",
			len(cfg.BankHz), cfg.BankHz, int(cfg.WindowSec), evalWindows),
	}
	for a := 0; a < har.NumActivities(); a++ {
		_, recall := cm.PrecisionRecall(a)
		res.Rows = append(res.Rows, []string{har.Activity(a).String(), pct(recall), f3(cm.F1(a))})
		res.Summary["recall_"+har.Activity(a).String()] = recall
	}
	res.Rows = append(res.Rows,
		[]string{"overall accuracy", pct(cm.Accuracy()), ""},
		[]string{"macro F1", f3(cm.MacroF1()), ""},
	)

	// Ablation: classifier family over the same chatter-rate features.
	abl, err := mod.Campaign(h.cfg.scaled(20), root.Split("ablation"))
	if err != nil {
		return nil, err
	}
	h.mark(StageDataset)
	for _, clf := range []struct {
		name    string
		trainer ml.Trainer
	}{
		{"knn(k=5)", ml.KNN{K: 5}},
		{"decision-tree", ml.Tree{MaxDepth: 8}},
		{"random-forest", ml.Forest{Trees: 30, MaxDepth: 8, Seed: seed}},
		{"gaussian-nb", ml.GaussianNB{}},
	} {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		acm, err := ml.CrossValidate(clf.trainer, abl, 5, root.Split("cv-"+clf.name))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{"ablation " + clf.name, pct(acm.Accuracy()), f3(acm.MacroF1())})
		res.Summary["abl_"+sanitizeKey(clf.name)] = acm.Accuracy()
	}
	h.mark(StageEval)

	// Optional neural ablation with int8 deployment accuracy: a small dense
	// CNN over the same chatter-rate features, scored in float and in
	// fixed-point int8 — the arithmetic the worn zero-energy node would run.
	// Everything here draws from fresh named rng splits strictly after the
	// rows above, so default-config outputs keep their bytes.
	if h.cfg.Quantize {
		qtrainD, err := mod.Campaign(h.cfg.scaled(24), root.Split("quant-train"))
		if err != nil {
			return nil, err
		}
		qtestD, err := mod.Campaign(h.cfg.scaled(10), root.Split("quant-test"))
		if err != nil {
			return nil, err
		}
		qtrain, qtest := modality.FromDataset(qtrainD), modality.FromDataset(qtestD)
		nf := len(qtrainD.X[0])
		sQ := root.Split("quant-net")
		net := cnn.NewNetwork([]int{nf},
			cnn.NewDense(nf, 24, sQ.Split("d1")),
			cnn.NewReLU(),
			cnn.NewDense(24, har.NumActivities(), sQ.Split("d2")),
		)
		net.FitParallel(qtrain, 30, 16, h.cfg.workers(), cnn.NewSGD(0.05, 0.9), sQ.Split("fit"))
		h.mark(StageTrain)
		floatAcc := net.Evaluate(qtest)
		qacc, agree, err := h.quantEval("har_", net, qtrain, qtest)
		if err != nil {
			return nil, err
		}
		h.mark(StageEval)
		res.Rows = append(res.Rows,
			[]string{"cnn (dense), float", pct(floatAcc), ""},
			[]string{"cnn (dense), int8", pct(qacc), f3(agree)},
		)
		res.Summary["acc_cnn_float"] = floatAcc
		res.Summary["acc_cnn_quant"] = qacc
		res.Summary["quant_agreement"] = agree
	}
	return h.finish(res), nil
}
