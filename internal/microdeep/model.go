package microdeep

import (
	"fmt"
	"math"

	"zeiot/internal/cnn"
	"zeiot/internal/obs"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// Strategy selects how units are assigned to nodes.
type Strategy int

// Assignment strategies.
const (
	// StrategyCoordinate is the natural XY mapping (Fig. 10(a) setting).
	StrategyCoordinate Strategy = iota + 1
	// StrategyBalanced is the paper's heuristic: equalized unit counts and
	// maximized CNN-link/WSN-link correspondence (Fig. 10(b) setting).
	StrategyBalanced
)

// Model is a MicroDeep deployment: a CNN, its unit graph, an assignment
// onto a WSN, and (optionally) per-node replicas of shared conv kernels for
// the local weight-update training mode.
type Model struct {
	Net    *cnn.Network
	Graph  *Graph
	Assign Assignment
	WSN    *wsn.Network

	// localUpdate reports whether per-node conv kernel replicas are
	// installed.
	localUpdate bool
	replicas    []*convReplica
	// exec is the cached distributed executor used by ForwardDistributed;
	// EnableLocalUpdate drops it.
	exec *Executor
	// gossipEvery > 0 averages each conv unit's kernel with its four
	// spatial neighbours every that-many optimizer steps — one-hop-only
	// traffic that pulls the locally connected kernels back toward a
	// shared filter.
	gossipEvery int
	stepCount   int
	// rec, when non-nil, receives per-epoch training curves and gossip
	// counters from FitParallel (see SetRecorder).
	rec       obs.Recorder
	recPrefix string
	recEval   []cnn.Sample
}

// convReplica holds the per-unit kernels of one conv stage: position
// (oy, ox) owns kernels[oy*w+ox], a locally connected layer.
type convReplica struct {
	stage   int
	conv    *cnn.Conv2D
	w       int
	kernels []*tensor.Tensor
	grads   []*tensor.Tensor
	// gossipBuf and divBuf are scratch reused across gossip rounds and
	// divergence measurements (both used to clone per position per call).
	gossipBuf []*tensor.Tensor
	divBuf    *tensor.Tensor
}

// Build constructs a MicroDeep model for net deployed on w using the given
// assignment strategy.
func Build(net *cnn.Network, w *wsn.Network, strategy Strategy) (*Model, error) {
	g, err := BuildGraph(net)
	if err != nil {
		return nil, err
	}
	var a Assignment
	switch strategy {
	case StrategyCoordinate:
		a, err = AssignByCoordinate(g, w)
	case StrategyBalanced:
		a, err = AssignBalanced(g, w, DefaultBalanceOptions())
	default:
		return nil, fmt.Errorf("microdeep: unknown strategy %d", strategy)
	}
	if err != nil {
		return nil, err
	}
	return &Model{Net: net, Graph: g, Assign: a, WSN: w}, nil
}

// EnableLocalUpdate switches the model to the paper's local weight-update
// mode ("weights of units are updated independently by each sensor node to
// avoid communication overhead, sacrificing some accuracy"): every conv
// unit position gets its own kernel — a locally connected layer — trained
// only on its own gradient and never synchronized with the other
// positions. This removes the kernel-aggregation traffic of synchronized
// shared-weight training (see ChargeWeightSync) and costs some accuracy
// because spatial weight sharing is lost.
func (m *Model) EnableLocalUpdate() {
	if m.localUpdate {
		return
	}
	m.localUpdate = true
	for si, st := range m.Graph.Stages {
		if st.Kind != StageConv {
			continue
		}
		r := &convReplica{
			stage:   si,
			conv:    st.Conv,
			w:       st.W,
			kernels: make([]*tensor.Tensor, st.H*st.W),
			grads:   make([]*tensor.Tensor, st.H*st.W),
		}
		for p := range r.kernels {
			r.kernels[p] = st.Conv.Weight().Clone()
			r.grads[p] = tensor.New(st.Conv.Weight().Shape()...)
		}
		r.conv.SetReplicaTable(r.kernels, r.grads, r.w)
		m.replicas = append(m.replicas, r)
	}
	// The replica tables invalidate any cached shadow stacks. The cached
	// executor reads them through the conv layers, but is dropped too, with
	// its configuration, as DistributedExecutor documents.
	m.Net.ResetParallelState()
	m.exec = nil
}

// LocalUpdate reports whether the local weight-update mode is active.
func (m *Model) LocalUpdate() bool { return m.localUpdate }

// ReplicaDivergence returns the mean L2 distance between every conv replica
// and the mean kernel of its stage — a measure of how far independent local
// updates have drifted apart. The per-kernel distance accumulates in the
// same element order as the Clone/Sub/L2 sequence it replaces, so the value
// is bit-identical while allocating only one reused mean buffer per stage.
func (m *Model) ReplicaDivergence() float64 {
	if len(m.replicas) == 0 {
		return 0
	}
	total, count := 0.0, 0
	for _, r := range m.replicas {
		if r.divBuf == nil {
			r.divBuf = tensor.New(r.conv.Weight().Shape()...)
		}
		mean := r.divBuf
		mean.Zero()
		for _, k := range r.kernels {
			mean.AddInPlace(k)
		}
		mean.ScaleInPlace(1 / float64(len(r.kernels)))
		md := mean.Data()
		for _, k := range r.kernels {
			sum := 0.0
			for i, kv := range k.Data() {
				d := kv - md[i]
				sum += d * d
			}
			total += math.Sqrt(sum)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func (m *Model) zeroReplicaGrads() {
	for _, r := range m.replicas {
		for _, g := range r.grads {
			g.Zero()
		}
	}
}

func (m *Model) stepReplicas(opt *cnn.SGD, batch int) {
	for _, r := range m.replicas {
		for p, k := range r.kernels {
			opt.StepOne(k, r.grads[p], batch)
		}
	}
	m.stepCount++
	if m.gossipEvery > 0 && m.stepCount%m.gossipEvery == 0 {
		m.gossip()
		if m.rec != nil {
			m.rec.Add(m.recPrefix+"gossip_rounds", 1)
		}
	}
}

// SetRecorder attaches an observability recorder: FitParallel then records
// one training-loss point per epoch under <prefix>train_loss, an
// accuracy point per epoch under <prefix>eval_acc when eval is non-empty,
// and — in local-update mode — a replica-divergence point per epoch under
// <prefix>replica_divergence. Gossip rounds accumulate in the counter
// <prefix>gossip_rounds. None of this consumes randomness or reorders a
// reduction, so trained weights and every experiment summary are identical
// with the recorder attached or not. A nil recorder (the default) disables
// recording with zero overhead.
func (m *Model) SetRecorder(r obs.Recorder, prefix string, eval []cnn.Sample) {
	m.rec = r
	m.recPrefix = prefix
	m.recEval = eval
}

// observeEpoch publishes one epoch's curve points; a no-op without a
// recorder. Runs strictly between epochs, outside any worker goroutine.
func (m *Model) observeEpoch(loss float64) {
	if m.rec == nil {
		return
	}
	m.rec.Observe(m.recPrefix+"train_loss", loss)
	if len(m.recEval) > 0 {
		m.rec.Observe(m.recPrefix+"eval_acc", m.Evaluate(m.recEval))
	}
	if m.localUpdate {
		m.rec.Observe(m.recPrefix+"replica_divergence", m.ReplicaDivergence())
	}
}

// SetGossip enables neighbour averaging of the per-unit kernels every
// `every` optimizer steps (0 disables). Must be used with local updates.
func (m *Model) SetGossip(every int) { m.gossipEvery = every }

// gossipNeighbors are the four spatial neighbour offsets averaged by gossip.
var gossipNeighbors = [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}

// gossip replaces each position's kernel with the mean of itself and its
// four spatial neighbours — a single one-hop exchange per conv unit. The
// next-value buffers are allocated once per replica and reused: gossip runs
// inside the training loop, where the per-position clones it replaced were
// the dominant allocation source.
func (m *Model) gossip() {
	for _, r := range m.replicas {
		h := len(r.kernels) / r.w
		if r.gossipBuf == nil {
			r.gossipBuf = make([]*tensor.Tensor, len(r.kernels))
			for p := range r.gossipBuf {
				r.gossipBuf[p] = tensor.New(r.kernels[p].Shape()...)
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < r.w; x++ {
				avg := r.gossipBuf[y*r.w+x]
				copy(avg.Data(), r.kernels[y*r.w+x].Data())
				count := 1.0
				for _, d := range gossipNeighbors {
					ny, nx := y+d[0], x+d[1]
					if ny < 0 || ny >= h || nx < 0 || nx >= r.w {
						continue
					}
					avg.AddInPlace(r.kernels[ny*r.w+nx])
					count++
				}
				avg.ScaleInPlace(1 / count)
			}
		}
		for p, k := range r.gossipBuf {
			copy(r.kernels[p].Data(), k.Data())
		}
	}
}

// FitParallel trains the model for epochs epochs of mini-batch SGD,
// reshuffling from stream at every epoch, and returns the last epoch's mean
// loss. It drives the CNN training engine (cnn.Trainer) one epoch at a time;
// workers <= 0 selects runtime.NumCPU(), and every worker count yields
// bit-identical weights. In local-update mode the conv kernels train as
// independent per-node replicas, stepped (and gossiped) at every mini-batch
// boundary; otherwise training is the centralized CNN's.
func (m *Model) FitParallel(samples []cnn.Sample, epochs, batch, workers int, opt *cnn.SGD, stream *rng.Stream) float64 {
	var o cnn.Optimizer = opt
	if m.localUpdate {
		m.zeroReplicaGrads()
		o = localSGD{m, opt}
	}
	t := cnn.NewTrainer(m.Net, o, stream, samples, epochs, batch, workers)
	perEpoch := (len(samples) + batch - 1) / batch
	for e := 0; e < epochs; e++ {
		t.Step(perEpoch)
		m.observeEpoch(t.LastLoss())
	}
	return t.LastLoss()
}

// localSGD is the optimizer of local-update training: every step applies
// opt to the shared parameters (dense layers, conv biases) and to each
// per-position kernel replica, zeroes the replica gradients, and runs gossip
// on its schedule. The engine zeroes the network's own gradients after it.
type localSGD struct {
	m   *Model
	opt *cnn.SGD
}

// StepNetwork implements cnn.Optimizer.
func (l localSGD) StepNetwork(n *cnn.Network, batch int) {
	l.opt.StepNetwork(n, batch)
	l.m.stepReplicas(l.opt, batch)
	l.m.zeroReplicaGrads()
}

// Evaluate returns accuracy using the model's effective weights (replicas
// included via the conv replica tables).
func (m *Model) Evaluate(samples []cnn.Sample) float64 { return m.Net.Evaluate(samples) }

// ForwardDistributed runs the site-by-site distributed executor, returning
// the final-stage outputs. It does not charge communication; call
// ChargeForward/ChargeBackward for cost accounting. The executor (and its
// value arena) is cached on the model and reused across calls;
// EnableLocalUpdate invalidates it.
func (m *Model) ForwardDistributed(input *tensor.Tensor) (*tensor.Tensor, error) {
	return m.DistributedExecutor().Forward(input)
}

// DistributedExecutor returns the model's cached distributed executor,
// creating it on first use. Callers that need fault-injected passes — dead
// nodes, lossy links, or the harvest runtime's compute brownouts
// (ComputeFaults/ComputeTick) — configure the returned executor directly;
// ForwardDistributed then runs under that configuration. The cache is
// invalidated by EnableLocalUpdate, which discards any configuration.
func (m *Model) DistributedExecutor() *Executor {
	if m.exec == nil {
		m.exec = NewExecutor(m.Graph)
	}
	return m.exec
}

// CostPerSample charges m.WSN with one forward+backward pass and returns
// the report. When syncWeights is true the weight-aggregation traffic of
// synchronized training is included (coordinator = node 0); local-update
// mode omits it, which is exactly the saving the paper claims.
func (m *Model) CostPerSample(syncWeights bool) (CostReport, error) {
	m.WSN.ResetCounters()
	if _, err := ChargeForward(m.Graph, m.Assign, m.WSN); err != nil {
		return CostReport{}, err
	}
	if _, err := ChargeBackward(m.Graph, m.Assign, m.WSN); err != nil {
		return CostReport{}, err
	}
	if syncWeights {
		live := m.WSN.Live()
		if len(live) == 0 {
			return CostReport{}, fmt.Errorf("microdeep: no live nodes")
		}
		if _, err := ChargeWeightSync(m.Graph, m.Assign, m.WSN, live[0]); err != nil {
			return CostReport{}, err
		}
	}
	return Report(m.WSN), nil
}
