// Package congestion implements the paper's two RSSI-based congestion
// estimators (§IV.B): car-level positioning and three-level congestion
// estimation for railway trips from Bluetooth RSSI among smartphones
// (ref. [65]), and room-scale people counting from the synchronized
// inter-node and surrounding RSSI of an already-deployed IEEE 802.15.4
// sensor network (ref. [66]).
package congestion

import (
	"fmt"
	"math"

	"zeiot/internal/geom"
	"zeiot/internal/ml"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
)

// Level is a three-level congestion class.
type Level int

// Congestion levels.
const (
	LevelLow Level = iota
	LevelMedium
	LevelHigh
)

func (l Level) String() string {
	switch l {
	case LevelLow:
		return "low"
	case LevelMedium:
		return "medium"
	case LevelHigh:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// TrainConfig describes the train geometry and radio environment.
type TrainConfig struct {
	// Cars is the number of cars; CarLength/CarWidth their size in metres.
	Cars      int
	CarLength float64
	CarWidth  float64
	// DoorLossDB is the attenuation added per inter-car door a link
	// crosses — the signal feature that makes car-level positioning work.
	DoorLossDB float64
	// Model is the in-car propagation model; PhoneTxDBm the Bluetooth
	// transmit power of phones and reference nodes.
	Model      radio.LogDistance
	PhoneTxDBm float64
	// BodyRadius models passengers as attenuating cylinders.
	BodyRadius float64
	// MediumAt and HighAt are the per-car passenger counts where
	// congestion becomes medium and high.
	MediumAt, HighAt int
}

// DefaultTrainConfig returns a six-car commuter train.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Cars:       6,
		CarLength:  20,
		CarWidth:   3,
		DoorLossDB: 14,
		Model:      radio.LogDistance{RefLossDB: 45, RefDist: 1, Exponent: 2.2, ShadowSigmaDB: 3.5},
		PhoneTxDBm: 0,
		BodyRadius: 0.35,
		MediumAt:   12,
		HighAt:     28,
	}
}

// LevelFor returns the congestion level for a per-car passenger count.
func (c TrainConfig) LevelFor(count int) Level {
	switch {
	case count >= c.HighAt:
		return LevelHigh
	case count >= c.MediumAt:
		return LevelMedium
	default:
		return LevelLow
	}
}

// refPos returns the reference node position of car i (ceiling centre).
func (c TrainConfig) refPos(car int) geom.Point {
	return geom.Point{X: (float64(car) + 0.5) * c.CarLength, Y: c.CarWidth / 2}
}

// Scenario is one train snapshot with ground truth.
type Scenario struct {
	Config TrainConfig
	// Users holds every phone-carrying passenger's true position; Car is
	// derived ground truth.
	Users []geom.Point
	Car   []int
}

// Generate creates a scenario with the given passenger count per car,
// placing passengers uniformly inside their car.
func Generate(cfg TrainConfig, perCar []int, stream *rng.Stream) (Scenario, error) {
	if len(perCar) != cfg.Cars {
		return Scenario{}, fmt.Errorf("congestion: %d car counts for %d cars", len(perCar), cfg.Cars)
	}
	s := Scenario{Config: cfg}
	for car, n := range perCar {
		for i := 0; i < n; i++ {
			p := geom.Point{
				X: (float64(car) + stream.Float64()) * cfg.CarLength,
				Y: stream.Float64() * cfg.CarWidth,
			}
			s.Users = append(s.Users, p)
			s.Car = append(s.Car, car)
		}
	}
	return s, nil
}

// Measurements holds one RSSI sweep of a scenario.
type Measurements struct {
	// UserRef[u][r] is user u's RSSI from car r's reference node, dBm.
	UserRef [][]float64
	// PeerCount[u] is the number of peers heard above the audibility
	// threshold; PeerMean[u] the mean RSSI of those peers; StrongPeers[u]
	// the count above the strong threshold (almost surely same-car);
	// BestRef[u] the strongest reference-node RSSI (crowding attenuates
	// it).
	PeerCount   []int
	PeerMean    []float64
	StrongPeers []int
	BestRef     []float64
}

// audibleDBm is the Bluetooth scan sensitivity; strongDBm marks peers
// close enough to almost surely share the car.
const (
	audibleDBm = -90
	strongDBm  = -72
)

// linkRSSI computes one link's RSSI including door and body losses.
func linkRSSI(cfg TrainConfig, a, b geom.Point, people radio.Obstacles, stream *rng.Stream) float64 {
	d := geom.Dist(a, b)
	rssi := cfg.Model.RSSI(cfg.PhoneTxDBm, 0, 0, d, stream)
	doors := int(math.Abs(float64(cfg.carOfX(a.X) - cfg.carOfX(b.X))))
	rssi -= float64(doors) * cfg.DoorLossDB
	rssi -= people.LossDB(a, b)
	return rssi
}

func (c TrainConfig) carOfX(x float64) int {
	return geom.ClampInt(int(x/c.CarLength), 0, c.Cars-1)
}

// Measure performs one synchronized RSSI sweep over a scenario.
func Measure(s Scenario, stream *rng.Stream) Measurements {
	cfg := s.Config
	m := Measurements{
		UserRef:     make([][]float64, len(s.Users)),
		PeerCount:   make([]int, len(s.Users)),
		PeerMean:    make([]float64, len(s.Users)),
		StrongPeers: make([]int, len(s.Users)),
		BestRef:     make([]float64, len(s.Users)),
	}
	people := radio.NewObstacles(s.Users, cfg.BodyRadius)
	for u, up := range s.Users {
		m.UserRef[u] = make([]float64, cfg.Cars)
		for r := 0; r < cfg.Cars; r++ {
			m.UserRef[u][r] = linkRSSI(cfg, up, cfg.refPos(r), people, stream)
		}
	}
	for u, up := range s.Users {
		sum, n, strong := 0.0, 0, 0
		for v, vp := range s.Users {
			if u == v {
				continue
			}
			rssi := linkRSSI(cfg, up, vp, people, stream)
			if rssi >= audibleDBm {
				sum += rssi
				n++
			}
			if rssi >= strongDBm {
				strong++
			}
		}
		m.PeerCount[u] = n
		m.StrongPeers[u] = strong
		if n > 0 {
			m.PeerMean[u] = sum / float64(n)
		} else {
			m.PeerMean[u] = audibleDBm
		}
		best := audibleDBm * 2.0
		for _, v := range m.UserRef[u] {
			if v > best {
				best = v
			}
		}
		m.BestRef[u] = best
	}
	return m
}

// Estimator holds the likelihood models of ref. [65], built from
// calibration scenarios ("preliminary experiments" in the paper).
type Estimator struct {
	cfg TrainConfig
	// mu[c][r], sigma[c][r]: Gaussian likelihood of the RSSI from
	// reference r observed by a user in car c.
	mu, sigma [][]float64
	// level is the per-user congestion classifier over
	// (peerCount, peerMean) features.
	level ml.Classifier
}

// Calibrate builds an estimator by simulating calibration rides across
// congestion levels.
func Calibrate(cfg TrainConfig, rides int, stream *rng.Stream) (*Estimator, error) {
	if rides < 4 {
		return nil, fmt.Errorf("congestion: need at least 4 calibration rides, got %d", rides)
	}
	e := &Estimator{cfg: cfg}
	sums := make([][]float64, cfg.Cars)
	sqs := make([][]float64, cfg.Cars)
	counts := make([][]int, cfg.Cars)
	for c := range sums {
		sums[c] = make([]float64, cfg.Cars)
		sqs[c] = make([]float64, cfg.Cars)
		counts[c] = make([]int, cfg.Cars)
	}
	var levelData ml.Dataset
	for ride := 0; ride < rides; ride++ {
		perCar := make([]int, cfg.Cars)
		for c := range perCar {
			switch stream.Intn(3) {
			case 0:
				perCar[c] = 2 + stream.Intn(cfg.MediumAt-2)
			case 1:
				perCar[c] = cfg.MediumAt + stream.Intn(cfg.HighAt-cfg.MediumAt)
			default:
				perCar[c] = cfg.HighAt + stream.Intn(cfg.HighAt)
			}
		}
		sc, err := Generate(cfg, perCar, stream)
		if err != nil {
			return nil, err
		}
		meas := Measure(sc, stream)
		for u, car := range sc.Car {
			for r := 0; r < cfg.Cars; r++ {
				v := meas.UserRef[u][r]
				sums[car][r] += v
				sqs[car][r] += v * v
				counts[car][r]++
			}
			levelData.X = append(levelData.X, levelFeatures(meas, u))
			levelData.Y = append(levelData.Y, int(cfg.LevelFor(perCar[car])))
		}
	}
	e.mu = make([][]float64, cfg.Cars)
	e.sigma = make([][]float64, cfg.Cars)
	for c := 0; c < cfg.Cars; c++ {
		e.mu[c] = make([]float64, cfg.Cars)
		e.sigma[c] = make([]float64, cfg.Cars)
		for r := 0; r < cfg.Cars; r++ {
			n := float64(counts[c][r])
			mean := sums[c][r] / n
			variance := sqs[c][r]/n - mean*mean
			e.mu[c][r] = mean
			e.sigma[c][r] = math.Sqrt(math.Max(variance, 1))
		}
	}
	clf, err := ml.GaussianNB{}.Fit(levelData)
	if err != nil {
		return nil, fmt.Errorf("congestion: fitting level model: %w", err)
	}
	e.level = clf
	return e, nil
}

// Positions estimates each user's car and a reliability weight (the
// posterior probability of the chosen car).
func (e *Estimator) Positions(m Measurements) (cars []int, reliability []float64) {
	nUsers := len(m.UserRef)
	cars = make([]int, nUsers)
	reliability = make([]float64, nUsers)
	for u := 0; u < nUsers; u++ {
		logp := make([]float64, e.cfg.Cars)
		for c := 0; c < e.cfg.Cars; c++ {
			ll := 0.0
			for r := 0; r < e.cfg.Cars; r++ {
				dv := m.UserRef[u][r] - e.mu[c][r]
				s := e.sigma[c][r]
				ll += -0.5*math.Log(2*math.Pi*s*s) - dv*dv/(2*s*s)
			}
			logp[c] = ll
		}
		// Softmax over cars for the posterior.
		maxLL := math.Inf(-1)
		for _, v := range logp {
			maxLL = math.Max(maxLL, v)
		}
		sum := 0.0
		for i, v := range logp {
			logp[i] = math.Exp(v - maxLL)
			sum += logp[i]
		}
		best, bestP := 0, -1.0
		for c, v := range logp {
			p := v / sum
			if p > bestP {
				best, bestP = c, p
			}
		}
		cars[u] = best
		reliability[u] = bestP
	}
	return cars, reliability
}

// CarCongestion estimates each car's congestion level by majority voting of
// per-user estimates, weighted by positioning reliability — the method of
// ref. [65]. Cars with no assigned users report LevelLow.
func (e *Estimator) CarCongestion(m Measurements, cars []int, reliability []float64) []Level {
	votes := make([][3]float64, e.cfg.Cars)
	for u := range m.PeerCount {
		lvl := e.level.Predict(levelFeatures(m, u))
		if lvl < 0 || lvl > 2 {
			continue
		}
		votes[cars[u]][lvl] += reliability[u]
	}
	out := make([]Level, e.cfg.Cars)
	for c := range votes {
		best, bestW := LevelLow, 0.0
		for lvl, w := range votes[c] {
			if w > bestW {
				best, bestW = Level(lvl), w
			}
		}
		out[c] = best
	}
	return out
}

// levelFeatures builds the per-user congestion feature vector.
func levelFeatures(m Measurements, u int) []float64 {
	return []float64{
		float64(m.PeerCount[u]),
		m.PeerMean[u],
		float64(m.StrongPeers[u]),
		m.BestRef[u],
	}
}
