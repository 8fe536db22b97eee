package zeiot

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"

	"zeiot/internal/cnn"
	"zeiot/internal/harvest"
	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// E17 is the intermittent-power runtime experiment: the paper's zero-energy
// devices compute on whatever ambient power they harvest, so learning on
// them is not a loop over epochs but a loop over ticks — train when the
// capacitor can fund a batch, brown out when it cannot, checkpoint so a
// power failure costs progress, never correctness.
//
// Phase A sweeps mean harvest power across trace profiles and trains the
// same CNN on each budget through a capacitor-gated cnn.Trainer: one batch
// per tick at most, each batch funded from the store or skipped. A run
// killed by RunConfig.Checkpoint resumes from its checkpoint file to a
// byte-identical result — the property the kill/resume tests pin.
//
// Phase B distributes the CNN over a harvest-powered 8×8 field: each node's
// capacitor trace becomes brownout windows on a wsn.LinkFaultModel, and the
// microdeep executor's compute-fault path measures what intermittent
// availability does to distributed inference accuracy.

// Phase A energy model. A 10 ms tick matches the charging granularity of
// the §IV.A backscatter MAC; the capacitor thresholds mirror the
// backscatter.Harvester hysteresis at µJ scale; the 32 µJ batch cost is the
// E11 compute scale (5 nJ/unit) applied to one 16-sample batch of the e17
// net. At most one batch fits in a tick, so every checkpoint lands on a
// batch boundary by construction.
const (
	e17TickSeconds   = 0.01
	e17CapJ          = 100e-6
	e17OnJ           = 50e-6
	e17OffJ          = 10e-6
	e17IdleJ         = 0.2e-6
	e17BatchJ        = 32e-6
	e17DeadlineTicks = 16_000 // 160 simulated seconds per sweep point

	// 10 epochs over 240 training samples is 150 batches ≈ 4.8 mJ of
	// compute: more than the 25 µW point can harvest before the deadline
	// (≈ 4 mJ), comfortably less than the 200 µW point's budget — so the
	// sweep spans did-not-finish through finished-with-slack.
	e17SampleCount = 300
	e17Epochs      = 10
	e17Batch       = 16

	// Phase B field: per-node mean harvest power, per-tick sensing cost
	// (deliberately above the 80 µW − idle net income, so nodes oscillate),
	// and the simulated window horizon the inference pass walks through.
	e17FieldMeanW = 80e-6
	e17SenseJ     = 1e-6
	e17FieldTicks = 2000
)

// e17RatesUW is the Phase A mean-harvest-power sweep in µW, multiplied by
// RunConfig.Harvest.PowerScale. The low end cannot finish training before
// the deadline; the high end finishes with duty cycle to spare.
var e17RatesUW = []float64{25, 50, 100, 200}

// e17Net builds the 8×8 occupancy CNN every sweep point trains: small
// enough that a µW budget can move it, deep enough that brownouts and
// checkpoints exercise conv, pool, and dense state.
func e17Net(stream *rng.Stream) *cnn.Network {
	return cnn.NewNetwork([]int{1, 8, 8},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, stream.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(4*4*4, 16, stream.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, stream.Split("d2")),
	)
}

// e17Dataset synthesizes the two-class 8×8 occupancy maps: a bright 3×3
// blob over sensor noise, class = which half of the field it sits in.
func e17Dataset(stream *rng.Stream, n int) []cnn.Sample {
	out := make([]cnn.Sample, n)
	for i := range out {
		label := i % 2
		data := make([]float64, 8*8)
		for j := range data {
			data[j] = 0.55 * stream.Norm()
		}
		cx := 1 + stream.Intn(2)
		if label == 1 {
			cx += 4
		}
		cy := 1 + stream.Intn(4)
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				data[(cy+dy)*8+(cx+dx)] += 0.5 + 0.3*stream.Float64()
			}
		}
		out[i] = cnn.Sample{Input: tensor.FromSlice(data, 1, 8, 8), Label: label}
	}
	return out
}

// e17Point is one finished sweep point, in both the checkpoint file and the
// result table. All fields exported for gob.
type e17Point struct {
	RateUW    float64
	Profile   string
	Completed bool
	Ticks     uint64
	Batches   int
	Brownouts uint64
	Duty      float64
	Loss      float64
	Acc       float64
}

// e17Checkpoint is the whole-experiment snapshot a simulated power failure
// writes: the config echo that must match on resume, the finished points,
// and the in-flight point's harvest node plus trainer checkpoint (which
// itself embeds weights, optimizer state, and rng stream position).
type e17Checkpoint struct {
	Version     int
	Seed        uint64
	SampleScale float64
	PowerScale  float64
	Profile     string
	Point       int
	Node        harvest.Node
	Trainer     []byte
	Done        []e17Point
}

const e17CheckpointVersion = 1

func saveE17Checkpoint(path string, ck *e17Checkpoint) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return fmt.Errorf("zeiot: encoding e17 checkpoint: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("zeiot: writing e17 checkpoint: %w", err)
	}
	return nil
}

func loadE17Checkpoint(path string) (*e17Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("zeiot: reading e17 checkpoint: %w", err)
	}
	ck := new(e17Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(ck); err != nil {
		return nil, fmt.Errorf("zeiot: decoding e17 checkpoint %q: %w", path, err)
	}
	if ck.Version != e17CheckpointVersion {
		return nil, fmt.Errorf("zeiot: e17 checkpoint %q is version %d, this build reads %d", path, ck.Version, e17CheckpointVersion)
	}
	return ck, nil
}

// e17PointSpec identifies one sweep point; every rng stream and harvest
// trace of the point derives from (root seed, label), so a resumed run
// rebuilds byte-identical state without replaying earlier points.
type e17PointSpec struct {
	// RateUW is the point's mean harvest power in µW (already PowerScale-
	// multiplied); summary keys and labels render it directly so scale 1
	// yields clean "rf_25uW"-style names with no float round-trip residue.
	RateUW  float64
	Profile harvest.Profile
	Label   string
}

func e17Points(scale float64, profiles []harvest.Profile) []e17PointSpec {
	var out []e17PointSpec
	for _, uw := range e17RatesUW {
		for _, p := range profiles {
			out = append(out, e17PointSpec{
				RateUW:  uw * scale,
				Profile: p,
				Label:   fmt.Sprintf("%s_%guW", p, uw*scale),
			})
		}
	}
	return out
}

func (spec e17PointSpec) node(seed uint64, index int) *harvest.Node {
	return &harvest.Node{
		Trace:       harvest.Trace{Seed: rng.Mix64(seed + 0xE17A), Node: index, Profile: spec.Profile, MeanW: spec.RateUW * 1e-6},
		Cap:         harvest.Capacitor{CapJ: e17CapJ, OnJ: e17OnJ, OffJ: e17OffJ},
		TickSeconds: e17TickSeconds,
		IdleDrawJ:   e17IdleJ,
	}
}

// RunE17Intermittent runs the intermittent-power experiment: the Phase A
// harvest sweep with optional kill/resume, then the Phase B brownout field.
// With RunConfig.Checkpoint.KillAfterBatches set, the run stops at that
// batch, writes its checkpoint, and returns ErrKilled; with Resume set it
// starts from the checkpoint and finishes byte-identically.
func RunE17Intermittent(ctx context.Context, rc *RunConfig) (*Result, error) {
	h, err := beginRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	seed := h.cfg.Seed
	scale := h.cfg.Harvest.powerScale()
	profiles := h.cfg.Harvest.profiles()

	total := h.cfg.scaled(e17SampleCount)
	if total < 5 {
		total = 5 // keep both splits non-empty under extreme -samples
	}
	data := e17Dataset(rng.New(seed).Split("e17-data"), total)
	cut := total * 4 / 5
	train, eval := data[:cut], data[cut:]
	h.mark(StageDataset)

	points := e17Points(scale, profiles)
	var done []e17Point
	startPoint := 0
	var resumeCK *e17Checkpoint
	if h.cfg.Checkpoint.Resume {
		resumeCK, err = loadE17Checkpoint(h.cfg.Checkpoint.Path)
		if err != nil {
			return nil, err
		}
		if resumeCK.Seed != seed || resumeCK.SampleScale != h.cfg.SampleScale ||
			resumeCK.PowerScale != scale || resumeCK.Profile != h.cfg.Harvest.Profile {
			return nil, fmt.Errorf("zeiot: e17 checkpoint %q was written under a different config (seed %d scale %g power %g profile %q); rerun with the original flags",
				h.cfg.Checkpoint.Path, resumeCK.Seed, resumeCK.SampleScale, resumeCK.PowerScale, resumeCK.Profile)
		}
		if resumeCK.Point >= len(points) {
			return nil, fmt.Errorf("zeiot: e17 checkpoint %q points at sweep index %d of %d", h.cfg.Checkpoint.Path, resumeCK.Point, len(points))
		}
		done = resumeCK.Done
		startPoint = resumeCK.Point
	}

	batchesThisRun := 0
	killAt := h.cfg.Checkpoint.KillAfterBatches
	for pi := startPoint; pi < len(points); pi++ {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		spec := points[pi]
		var tr *cnn.Trainer
		var node *harvest.Node
		if resumeCK != nil && pi == startPoint {
			tr, err = cnn.ResumeTrainer(bytes.NewReader(resumeCK.Trainer), train, h.cfg.workers())
			if err != nil {
				return nil, fmt.Errorf("zeiot: resuming e17 trainer: %w", err)
			}
			n := resumeCK.Node
			node = &n
		} else {
			net := e17Net(rng.New(seed).Split("e17-net-" + spec.Label))
			tr = cnn.NewTrainer(net, cnn.NewSGD(0.05, 0.9), rng.New(seed).Split("e17-fit-"+spec.Label),
				train, e17Epochs, e17Batch, h.cfg.workers())
			node = spec.node(seed, pi)
		}

		// The intermittent loop: harvest a tick, then train exactly as much
		// as the capacitor can fund. Each funded batch is one Trainer step,
		// so the trainer always rests at a batch boundary — the clean
		// checkpoint cut a real intermittent runtime must engineer.
		for node.Tick < e17DeadlineTicks && !tr.Done() {
			on := node.StepTick()
			if on && node.TrySpend(e17BatchJ) {
				tr.Step(1)
				batchesThisRun++
				if killAt > 0 && batchesThisRun >= killAt {
					var tb bytes.Buffer
					if err := tr.Save(&tb); err != nil {
						return nil, fmt.Errorf("zeiot: saving e17 trainer: %w", err)
					}
					ck := &e17Checkpoint{
						Version:     e17CheckpointVersion,
						Seed:        seed,
						SampleScale: h.cfg.SampleScale,
						PowerScale:  scale,
						Profile:     h.cfg.Harvest.Profile,
						Point:       pi,
						Node:        *node,
						Trainer:     tb.Bytes(),
						Done:        done,
					}
					if err := saveE17Checkpoint(h.cfg.Checkpoint.Path, ck); err != nil {
						return nil, err
					}
					return nil, fmt.Errorf("%w: e17 stopped after %d batches at sweep point %s; rerun with -resume -checkpoint %s",
						ErrKilled, batchesThisRun, spec.Label, h.cfg.Checkpoint.Path)
				}
			}
		}
		h.mark(StageTrain)
		p := e17Point{
			RateUW:    spec.RateUW,
			Profile:   spec.Profile.String(),
			Completed: tr.Done(),
			Ticks:     node.Tick,
			Batches:   tr.BatchesRun(),
			Brownouts: node.Brownouts,
			Duty:      node.DutyCycle(),
			Loss:      tr.LastLoss(),
			Acc:       tr.Net().Evaluate(eval),
		}
		h.mark(StageEval)
		done = append(done, p)
		if rec := h.cfg.Recorder; rec != nil {
			rec.Gauge("harvest_duty_"+spec.Label, p.Duty)
			rec.Gauge("harvest_brownouts_"+spec.Label, float64(p.Brownouts))
			rec.Gauge("harvest_batches_"+spec.Label, float64(p.Batches))
		}
	}

	// Phase B: the same CNN distributed over a harvest-powered 8×8 field.
	// Train it steadily (the gateway has mains power; the field does not),
	// prove the distributed checkpoint round-trips, then push inference
	// through the field's brownout schedule.
	w := wsn.NewGrid(8, 8, 1)
	mdOpt := cnn.NewSGD(0.05, 0.9)
	mdNet := e17Net(rng.New(seed).Split("e17-md-net"))
	model, err := microdeep.Build(mdNet, w, microdeep.StrategyBalanced)
	if err != nil {
		return nil, err
	}
	model.FitParallel(train, 2, e17Batch, h.cfg.workers(), mdOpt, rng.New(seed).Split("e17-md-fit"))
	h.mark(StageTrain)

	selfCheck, err := e17SelfCheck(seed, model, mdOpt, w, eval)
	if err != nil {
		return nil, err
	}

	// Simulate every field node's capacitor and register its dark intervals
	// as brownout windows, shared by the link and compute fault layers.
	fm := wsn.NewLinkFaultModel(wsn.FaultConfig{})
	windows := 0
	var offTicks uint64
	for i := 0; i < w.NumNodes(); i++ {
		n := &harvest.Node{
			Trace:       harvest.Trace{Seed: rng.Mix64(seed + 0xB0F1E1D), Node: i, Profile: profiles[i%len(profiles)], MeanW: e17FieldMeanW * scale},
			Cap:         harvest.Capacitor{CapJ: e17CapJ, OnJ: e17OnJ, OffJ: e17OffJ},
			TickSeconds: e17TickSeconds,
			IdleDrawJ:   e17IdleJ,
		}
		inOff := false
		var runStart uint64
		for t := uint64(0); t < e17FieldTicks; t++ {
			on := n.StepTick()
			if on {
				n.TrySpend(e17SenseJ)
			}
			if !on {
				if !inOff {
					inOff, runStart = true, t
				}
				offTicks++
			} else if inOff {
				fm.AddBrownout(wsn.Brownout{Node: i, Start: runStart, End: t})
				windows++
				inOff = false
			}
		}
		if inOff {
			fm.AddBrownout(wsn.Brownout{Node: i, Start: runStart, End: e17FieldTicks})
			windows++
		}
	}
	availability := 1 - float64(offTicks)/float64(uint64(w.NumNodes())*e17FieldTicks)
	h.mark(StageCharge)

	// Inference walks the eval set through the window timeline: sample k
	// runs at tick k*stride, so accuracy averages over the field's cold
	// start, brownouts, and bright spells alike.
	ex := model.DistributedExecutor()
	ex.Assign = &model.Assign
	stride := uint64(e17FieldTicks / len(eval))
	if stride == 0 {
		stride = 1
	}
	// The clean pass runs as one batch; the brownout pass runs per sample,
	// because the compute faults move with ComputeTick.
	inputs := make([]*tensor.Tensor, len(eval))
	for k, s := range eval {
		inputs[k] = s.Input
	}
	ex.ComputeFaults = nil
	clean, err := ex.ForwardBatch(inputs)
	if err != nil {
		return nil, err
	}
	cleanOK, brownOK := 0, 0
	ex.ComputeFaults = fm
	for k, s := range eval {
		if argmax(clean[k].Data()) == s.Label {
			cleanOK++
		}
		ex.ComputeTick = uint64(k) * stride
		out, err := ex.Forward(s.Input)
		if err != nil {
			return nil, err
		}
		if argmax(out.Data()) == s.Label {
			brownOK++
		}
	}
	ex.ComputeFaults = nil
	accClean := float64(cleanOK) / float64(len(eval))
	accBrown := float64(brownOK) / float64(len(eval))
	h.mark(StageEval)
	if rec := h.cfg.Recorder; rec != nil {
		rec.Gauge("field_availability", availability)
		rec.Gauge("field_brownout_windows", float64(windows))
	}

	header := []string{"profile", "harvest µW", "duty", "brownouts", "batches", "done", "loss", "accuracy"}
	rows := make([][]string, 0, len(done)+3)
	sum := map[string]float64{}
	for _, p := range done {
		doneCell := "no"
		completed := 0.0
		if p.Completed {
			doneCell, completed = "yes", 1
		}
		rows = append(rows, []string{p.Profile, f1(p.RateUW), pct(p.Duty), fi(int(p.Brownouts)), fi(p.Batches), doneCell, f3(p.Loss), pct(p.Acc)})
		key := fmt.Sprintf("%s_%guW", p.Profile, p.RateUW)
		sum["duty_"+key] = p.Duty
		sum["batches_"+key] = float64(p.Batches)
		sum["completed_"+key] = completed
		sum["brownouts_"+key] = float64(p.Brownouts)
		sum["acc_"+key] = p.Acc
	}
	fieldUW := e17FieldMeanW * scale * 1e6
	selfCell := "no"
	if selfCheck {
		selfCell = "yes"
	}
	rows = append(rows,
		[]string{"field clean", f1(fieldUW), "-", "-", "-", "-", "-", pct(accClean)},
		[]string{"field brownout", f1(fieldUW), pct(availability), fi(windows), "-", "-", "-", pct(accBrown)},
		[]string{"ckpt selfcheck", "-", "-", "-", "-", selfCell, "-", "-"},
	)
	sum["acc_clean"] = accClean
	sum["acc_brownout"] = accBrown
	sum["availability"] = availability
	sum["brownout_windows"] = float64(windows)
	sum["checkpoint_selfcheck"] = boolGauge(selfCheck)

	res := &Result{
		ID:         "e17",
		Title:      "Intermittent-power runtime: harvest-gated training and brownout inference",
		PaperClaim: "zero-energy devices compute on harvested µW budgets (§I) — implemented as capacitor-gated training with checkpointed resume",
		Header:     header,
		Rows:       rows,
		Summary:    sum,
		Notes: fmt.Sprintf("phase A trains the 8×8 CNN one funded batch per %dms tick (batch %.0fµJ, idle %.1fµJ, cap %.0f/%.0f/%.0fµJ hysteresis, deadline %d ticks); "+
			"phase B converts %d field nodes' capacitor traces into brownout windows shared by the link and compute fault layers",
			int(e17TickSeconds*1000), e17BatchJ*1e6, e17IdleJ*1e6, e17CapJ*1e6, e17OnJ*1e6, e17OffJ*1e6, e17DeadlineTicks, w.NumNodes()),
	}
	return h.finish(res), nil
}

// e17SelfCheck round-trips the distributed model through its training
// checkpoint into a differently-initialized replica and requires identical
// distributed outputs — the in-run canary for the cnn/microdeep checkpoint
// stack that the unit tests pin in detail.
func e17SelfCheck(seed uint64, model *microdeep.Model, opt *cnn.SGD, w *wsn.Network, eval []cnn.Sample) (bool, error) {
	var buf bytes.Buffer
	if err := model.SaveTraining(&buf, opt); err != nil {
		return false, fmt.Errorf("zeiot: e17 self-check save: %w", err)
	}
	other, err := microdeep.Build(e17Net(rng.New(seed).Split("e17-md-net2")), w, microdeep.StrategyBalanced)
	if err != nil {
		return false, err
	}
	if _, err := other.RestoreTraining(bytes.NewReader(buf.Bytes()), cnn.NewSGD(0.05, 0.9)); err != nil {
		return false, fmt.Errorf("zeiot: e17 self-check restore: %w", err)
	}
	n := len(eval)
	if n > 8 {
		n = 8
	}
	for _, s := range eval[:n] {
		a, err := model.ForwardDistributed(s.Input)
		if err != nil {
			return false, err
		}
		b, err := other.ForwardDistributed(s.Input)
		if err != nil {
			return false, err
		}
		if !tensor.Equal(a, b, 0) {
			return false, nil
		}
	}
	return true, nil
}

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
