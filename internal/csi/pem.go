package csi

import (
	"fmt"
	"math/cmplx"
	"sort"

	"zeiot/internal/geom"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
)

// PEM computes the Percentage of nonzero Elements of ref. [29] (Electronic
// Frog Eye): the fraction of (time, subcarrier) cells whose CSI magnitude
// moved by more than threshold between consecutive snapshots. More people
// moving in the monitored area perturb more propagation paths, so PEM
// grows (and saturates) with crowd size.
func PEM(mags [][]float64, threshold float64) float64 {
	if len(mags) < 2 {
		return 0
	}
	nonzero, total := 0, 0
	for t := 1; t < len(mags); t++ {
		for s := range mags[t] {
			d := mags[t][s] - mags[t-1][s]
			if d < 0 {
				d = -d
			}
			if d > threshold {
				nonzero++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nonzero) / float64(total)
}

// CrowdConfig parameterizes the crowd-counting simulation: a Wi-Fi link
// across a hall with people random-walking through it.
type CrowdConfig struct {
	TX, RX      geom.Point
	CenterHz    float64
	Subcarriers int
	SpacingHz   float64
	// Snapshots per measurement window and StepM the per-snapshot walk.
	Snapshots int
	StepM     float64
	// Threshold is the PEM variation threshold relative to the mean CSI
	// magnitude.
	Threshold float64
}

// DefaultCrowdConfig returns a 10×8 m hall monitored by one link.
func DefaultCrowdConfig() CrowdConfig {
	return CrowdConfig{
		TX: geom.Point{X: 0, Y: 4}, RX: geom.Point{X: 10, Y: 4},
		CenterHz: 2.437e9, Subcarriers: 52, SpacingHz: 312.5e3,
		Snapshots: 40, StepM: 0.25, Threshold: 0.6,
	}
}

// SimulateCrowdCSI produces one measurement window's CSI magnitudes
// (snapshots × subcarriers) with the given number of people walking.
func SimulateCrowdCSI(cfg CrowdConfig, people int, stream *rng.Stream) [][]float64 {
	positions := make([]geom.Point, people)
	for i := range positions {
		positions[i] = geom.Point{X: stream.Float64() * 10, Y: stream.Float64() * 8}
	}
	mags := make([][]float64, cfg.Snapshots)
	for t := 0; t < cfg.Snapshots; t++ {
		for i := range positions {
			positions[i].X = geom.Clamp(positions[i].X+stream.NormMeanStd(0, cfg.StepM), 0, 10)
			positions[i].Y = geom.Clamp(positions[i].Y+stream.NormMeanStd(0, cfg.StepM), 0, 8)
		}
		scene := radio.Scene{TX: cfg.TX, RX: cfg.RX, CenterHz: cfg.CenterHz}
		for _, p := range positions {
			scene.Scatterers = append(scene.Scatterers, radio.Scatterer{Pos: p, Reflectivity: 0.6})
		}
		resp := scene.Channel(stream).SubcarrierResponse(cfg.CenterHz, cfg.SpacingHz, cfg.Subcarriers)
		row := make([]float64, cfg.Subcarriers)
		for s, h := range resp {
			row[s] = cmplx.Abs(h)
		}
		mags[t] = row
	}
	// Normalize magnitudes so the PEM threshold is scale-free.
	mean := 0.0
	for _, row := range mags {
		for _, v := range row {
			mean += v
		}
	}
	mean /= float64(cfg.Snapshots * cfg.Subcarriers)
	if mean > 0 {
		for _, row := range mags {
			for s := range row {
				row[s] /= mean
			}
		}
	}
	return mags
}

// CrowdCounter maps PEM values to crowd counts through a monotone
// calibration curve, the estimation model of ref. [29].
type CrowdCounter struct {
	cfg CrowdConfig
	// pem[i] is the mean calibrated PEM for count i.
	pem []float64
}

// CalibrateCrowd builds the PEM→count curve from runs windows per count.
func CalibrateCrowd(cfg CrowdConfig, maxPeople, runs int, stream *rng.Stream) (*CrowdCounter, error) {
	if maxPeople < 1 || runs < 1 {
		return nil, fmt.Errorf("csi: invalid crowd calibration (%d people, %d runs)", maxPeople, runs)
	}
	c := &CrowdCounter{cfg: cfg, pem: make([]float64, maxPeople+1)}
	for n := 0; n <= maxPeople; n++ {
		sum := 0.0
		for r := 0; r < runs; r++ {
			sum += PEM(SimulateCrowdCSI(cfg, n, stream.Split(fmt.Sprintf("cal-%d-%d", n, r))), cfg.Threshold)
		}
		c.pem[n] = sum / float64(runs)
	}
	// Enforce monotonicity (pool adjacent violators) so inversion is
	// well defined even with calibration noise.
	for i := 1; i < len(c.pem); i++ {
		if c.pem[i] < c.pem[i-1] {
			avg := (c.pem[i] + c.pem[i-1]) / 2
			c.pem[i] = avg
			c.pem[i-1] = avg
		}
	}
	sort.Float64s(c.pem)
	return c, nil
}

// Estimate inverts the calibration curve: the count whose calibrated PEM
// is nearest the observed one.
func (c *CrowdCounter) Estimate(pem float64) int {
	best, bestD := 0, -1.0
	for n, v := range c.pem {
		d := pem - v
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// Count measures windows observation windows (PEM averaged, as Frog Eye's
// longer observations do) and estimates the crowd size. windows < 1 is
// treated as 1.
func (c *CrowdCounter) Count(people, windows int, stream *rng.Stream) int {
	if windows < 1 {
		windows = 1
	}
	sum := 0.0
	for i := 0; i < windows; i++ {
		sum += PEM(SimulateCrowdCSI(c.cfg, people, stream), c.cfg.Threshold)
	}
	return c.Estimate(sum / float64(windows))
}

// CrowdLevel is the three-level congestion class a single-link PEM can
// resolve reliably: the feature saturates once a handful of people move,
// so exact counting beyond that is not physical (see EXPERIMENTS.md).
type CrowdLevel int

// Crowd levels.
const (
	CrowdEmpty CrowdLevel = iota
	CrowdSparse
	CrowdBusy
)

func (l CrowdLevel) String() string {
	switch l {
	case CrowdEmpty:
		return "empty"
	case CrowdSparse:
		return "sparse"
	case CrowdBusy:
		return "busy"
	default:
		return fmt.Sprintf("CrowdLevel(%d)", int(l))
	}
}

// LevelForCount maps a person count to its congestion level (0 / 1–2 / 3+).
func LevelForCount(n int) CrowdLevel {
	switch {
	case n == 0:
		return CrowdEmpty
	case n <= 2:
		return CrowdSparse
	default:
		return CrowdBusy
	}
}

// CountLevel measures and classifies the congestion level.
func (c *CrowdCounter) CountLevel(people, windows int, stream *rng.Stream) CrowdLevel {
	return LevelForCount(c.Count(people, windows, stream))
}
