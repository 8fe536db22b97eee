package zeiot

import (
	"context"
	"fmt"

	"zeiot/internal/cnn"
	"zeiot/internal/intrusion"
	"zeiot/internal/modality"
	"zeiot/internal/rng"
)

// RunE14Intrusion implements use case (iii) of §III.C — "detecting
// intrusion of wild animals" and classifying humans versus animals — with
// the CNN-over-UWB approach of ref. [46]: range–time radar maps where gait
// frequency and body extent separate bipeds from quadrupeds, classified by
// the same CNN family MicroDeep distributes.
func RunE14Intrusion(ctx context.Context, rc *RunConfig) (*Result, error) {
	h, err := beginRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	seed := h.cfg.Seed
	root := rng.New(seed)
	// The intrusion modality adapter; its campaign path reproduces the
	// historical intrusion.GenerateDataset draws byte-for-byte, and the
	// inlined train/eval below keeps TrainAndEvaluate's stream names
	// ("data"/"net"/"fit") while gaining the harness's training workers and
	// recorder (every worker count trains bit-identical weights).
	mod := modality.NewIntrusion()
	cfg := mod.Cfg
	mapsPerClass := h.cfg.scaled(60)
	samples := mod.Campaign(mapsPerClass, root.Split("data"))
	cut := len(samples) * 3 / 4
	train, test := samples[:cut], samples[cut:]
	h.mark(StageDataset)

	net := intrusion.NewDetector(cfg, root.Split("net"))
	net.SetRecorder(h.cfg.Recorder, "intrusion_", test)
	net.FitParallel(train, 8, 16, h.cfg.workers(), cnn.NewSGD(0.02, 0.9), root.Split("fit"))
	h.mark(StageTrain)

	correct := 0
	hits := make([]int, intrusion.NumClasses())
	totals := make([]int, intrusion.NumClasses())
	for i, got := range net.PredictAll(test) {
		label := test[i].Label
		totals[label]++
		if got == label {
			correct++
			hits[label]++
		}
	}
	recall := make([]float64, intrusion.NumClasses())
	for c := range recall {
		if totals[c] > 0 {
			recall[c] = float64(hits[c]) / float64(totals[c])
		}
	}
	acc := float64(correct) / float64(len(test))
	res := &Result{
		ID:         "e14",
		Title:      "Animal intrusion detection: CNN on range-time maps",
		PaperClaim: "use case (iii) via ref [46]: UWB + CNN classifies humans and animals",
		Header:     []string{"class", "recall"},
		Summary: map[string]float64{
			"accuracy":      acc,
			"recall_empty":  recall[intrusion.ClassEmpty],
			"recall_human":  recall[intrusion.ClassHuman],
			"recall_animal": recall[intrusion.ClassAnimal],
		},
		Notes: fmt.Sprintf("%d×%d range-time maps at %g Hz, %d maps/class, CNN = conv+pool+2 dense",
			cfg.RangeBins, cfg.Frames, cfg.FrameHz, mapsPerClass),
	}
	for c := 0; c < intrusion.NumClasses(); c++ {
		res.Rows = append(res.Rows, []string{intrusion.Class(c).String(), pct(recall[c])})
	}
	res.Rows = append(res.Rows, []string{"overall accuracy", pct(acc)})
	h.mark(StageEval)
	return h.finish(res), nil
}
