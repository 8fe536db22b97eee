package zeiot

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"zeiot/internal/obs"
)

// Canonical stage names for Result.Timings. Experiments mark the stages
// they actually have; StageTotal is always present.
const (
	StageDataset = "dataset"
	StageTrain   = "train"
	StageEval    = "eval"
	StageCharge  = "charge"
	StageTotal   = "total"
)

// Timings records per-stage wall time for one run, keyed by stage name
// (StageDataset, StageTrain, StageEval, StageCharge, plus StageTotal).
// Durations marshal as nanoseconds. Wall time is the one value in a Result
// that is not deterministic, so tools diffing results byte-for-byte strip
// it first (cmd/zeiotbench omits it unless -timings is given).
type Timings map[string]time.Duration

// Stages returns the recorded stage names in canonical order (dataset,
// train, eval, charge, total) followed by any extras sorted by name.
func (t Timings) Stages() []string {
	canonical := []string{StageDataset, StageTrain, StageEval, StageCharge, StageTotal}
	inCanon := make(map[string]bool, len(canonical))
	out := make([]string, 0, len(t))
	for _, s := range canonical {
		inCanon[s] = true
		if _, ok := t[s]; ok {
			out = append(out, s)
		}
	}
	extras := make([]string, 0)
	for s := range t {
		if !inCanon[s] {
			extras = append(extras, s)
		}
	}
	sort.Strings(extras)
	return append(out, extras...)
}

// Result is the regenerated form of one paper table or figure.
type Result struct {
	// ID is the experiment identifier (e1..e15); Title a short name.
	ID    string `json:"id"`
	Title string `json:"title"`
	// PaperClaim quotes the number(s) the paper reports for this artifact.
	PaperClaim string `json:"paper_claim,omitempty"`
	// Header and Rows form the regenerated table.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Summary exposes the headline numbers for programmatic checks
	// (benchmarks assert on these keys).
	Summary map[string]float64 `json:"summary"`
	// Timings is the per-stage wall-time instrumentation every run
	// records about itself. Unlike every other field it is not
	// deterministic.
	Timings Timings `json:"timings,omitempty"`
	// Metrics is the observability export: when RunConfig.Recorder is a
	// snapshotting recorder (obs.NewRegistry), the harness attaches its
	// state here at the end of the run. Metrics named with the
	// obs.WallTimePrefix convention are the only nondeterministic entries;
	// everything else is byte-stable across identical runs. Nil whenever
	// observability is disabled, so default-config output is unchanged.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Notes records deviations and tuning decisions.
	Notes string `json:"notes,omitempty"`
}

// WriteTo renders the result as a text table.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", strings.ToUpper(r.ID), r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Rows may be ragged (e.g. annotation rows wider than Header):
			// cells beyond the last header column render unpadded.
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		writeRow(row)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID, Title string
	// Paper cites what the artifact is in the paper.
	Paper string
	// Run executes the experiment under the given per-run config. A nil
	// cfg means DefaultRunConfig(); the config is cloned on entry, never
	// mutated, so one config value may back many concurrent runs. The
	// context is honoured at stage boundaries and between training
	// repeats.
	Run func(ctx context.Context, cfg *RunConfig) (*Result, error)
}

// Experiments returns the registry in index order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "e1", Title: "Fall-detection CNN: optimal vs feasible+heuristic (Fig. 10)", Paper: "accuracy 91.875% vs 89.73%, max comm cost 360 vs 210 (-40%)", Run: RunE1FallCommCost},
		{ID: "e2", Title: "Lounge discomfort: MicroDeep vs standard CNN (§IV.C)", Paper: "95% vs 97% accuracy; peak traffic 13% of centralized", Run: RunE2Lounge},
		{ID: "e3", Title: "Train-car positioning and congestion (§IV.B, ref [65])", Paper: "83% car-level positioning; congestion F-measure 0.82", Run: RunE3TrainCar},
		{ID: "e4", Title: "Room people counting from 802.15.4 RSSI (§IV.B, ref [66])", Paper: "~79% accuracy, errors up to two people", Run: RunE4RoomCount},
		{ID: "e5", Title: "CSI localization over 6 patterns (§IV.B, ref [8])", Paper: "~96% for 7 positions when walking with divergent antennas", Run: RunE5CSILocalization},
		{ID: "e6", Title: "Backscatter MAC coexistence (§IV.A, ref [64])", Paper: "scheduled MAC preserves WLAN performance and backscatter delivery; errors rise without traffic/dummies", Run: RunE6BackscatterMAC},
		{ID: "e7", Title: "Zero-energy link budget and energy per bit (§I)", Paper: "backscatter ≈ 1/10,000 the power of conventional radio (~10 µW)", Run: RunE7LinkEnergy},
		{ID: "e8", Title: "Resilience to broken devices (§V challenge)", Paper: "stated as an open challenge — implemented and measured here", Run: RunE8Resilience},
		{ID: "e9", Title: "Kindergarten sociogram (§III.C use case iv)", Paper: "sketched qualitatively — implemented and scored against ground truth", Run: RunE9Sociogram},
		{ID: "e10", Title: "RFID tag-array tracking and direction (§III.A, refs [60][61])", Paper: "skeleton tracking and movement-direction estimation, qualitative", Run: RunE10RFIDTracking},
		{ID: "e11", Title: "Battery-free MicroDeep on backscatter (§IV.C future work)", Paper: "stated as ongoing future work — implemented and measured here", Run: RunE11BatteryFree},
		{ID: "e12", Title: "Survey sensing: Motion-Fi and Frog-Eye PEM (§II.B, refs [37][29])", Paper: "repetitive-motion counting and PEM crowd estimation, cited results", Run: RunE12SurveySensing},
		{ID: "e13", Title: "Athlete activity recognition on a zero-energy resonator bank (§III.C use case ii)", Paper: "qualitative use case — implemented and scored here", Run: RunE13AthleteHAR},
		{ID: "e14", Title: "Animal intrusion detection with CNN over range-time maps (§III.C use case iii, ref [46])", Paper: "qualitative use case — implemented and scored here", Run: RunE14Intrusion},
		{ID: "e15", Title: "RF-ECG vital rates from a chest tag array (§III.C use case i, ref [58])", Paper: "qualitative use case — implemented and scored here", Run: RunE15Vitals},
		{ID: "e16", Title: "Crowd-scale backscatter field on the sharded routing core (§I/§III.C vision)", Paper: "10⁵-device deployments stated as the target scale — simulated here with churn and mobile tags", Run: RunE16Crowd},
		{ID: "e17", Title: "Intermittent-power runtime: harvest-gated training and brownout inference (§I zero-energy vision)", Paper: "devices compute on harvested µW budgets — implemented as capacitor-gated training with checkpointed, bit-identical resume", Run: RunE17Intermittent},
		{ID: "e18", Title: "Cross-modal benchmark matrix over the unified modality registry (§III.C one-substrate vision)", Paper: "one zero-energy substrate recognizes many contexts — measured as an accuracy/latency/energy matrix here", Run: RunE18CrossModal},
	}
}

// FindExperiment returns the experiment with the given id.
func FindExperiment(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("zeiot: unknown experiment %q", id)
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func fi(v int) string      { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
