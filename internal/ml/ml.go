// Package ml provides the classical learners and evaluation metrics the
// zeiot wireless-sensing pipelines use: k-nearest-neighbours, Gaussian
// naive Bayes, softmax (multinomial logistic) regression, confusion
// matrices with accuracy and macro F-measure, feature standardization, and
// k-fold cross-validation.
package ml

import (
	"fmt"
	"math"

	"zeiot/internal/rng"
)

// Dataset is a labelled feature matrix.
type Dataset struct {
	X [][]float64
	Y []int
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// NumClasses returns 1 + the maximum label.
func (d Dataset) NumClasses() int {
	maxY := -1
	for _, y := range d.Y {
		if y > maxY {
			maxY = y
		}
	}
	return maxY + 1
}

// Subset returns the dataset restricted to the given indices (copying the
// index slice only; feature rows are shared).
func (d Dataset) Subset(idx []int) Dataset {
	out := Dataset{X: make([][]float64, len(idx)), Y: make([]int, len(idx))}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// Classifier is a trained model.
type Classifier interface {
	Predict(x []float64) int
}

// Trainer fits a classifier to a dataset.
type Trainer interface {
	Fit(d Dataset) (Classifier, error)
}

// --- k-nearest neighbours ---

// KNN is a k-nearest-neighbour trainer (Euclidean distance, majority vote,
// lowest class wins ties). Neighbours are ranked by squared distance, then
// by label; a NaN distance ranks after every number.
type KNN struct {
	K int
}

type knnModel struct {
	k    int
	nf   int
	data Dataset
}

// Fit implements Trainer.
func (k KNN) Fit(d Dataset) (Classifier, error) {
	if k.K <= 0 {
		return nil, fmt.Errorf("ml: KNN k = %d", k.K)
	}
	nf, err := featureWidth(d)
	if err != nil {
		return nil, err
	}
	return &knnModel{k: k.K, nf: nf, data: d}, nil
}

// neighbor is one training row's squared distance to the query and label.
type neighbor struct {
	dist float64
	y    int
}

// less orders neighbours by distance, NaN after every number, then by label.
func (a neighbor) less(b neighbor) bool {
	switch {
	case a.dist < b.dist:
		return true
	case a.dist > b.dist:
		return false
	case a.dist == b.dist:
		return a.y < b.y
	}
	if aNaN, bNaN := a.dist != a.dist, b.dist != b.dist; aNaN != bNaN {
		return bNaN
	}
	return a.y < b.y
}

// Predict implements Classifier. It keeps the k nearest rows in an
// insertion buffer, so the vote sees the first k of the n rows sorted by
// less without sorting them all.
func (m *knnModel) Predict(x []float64) int {
	if len(x) < m.nf {
		panic(fmt.Sprintf("ml: KNN query has %d features, model has %d", len(x), m.nf))
	}
	x = x[:m.nf]
	X, Y := m.data.X, m.data.Y
	k := min(m.k, len(X))
	var small [8]neighbor
	best := small[:0]
	if k > len(small) {
		best = make([]neighbor, 0, k)
	}
	i := 0
	for ; i+4 <= len(X); i += 4 {
		d0, d1, d2, d3 := sqDist4(x, X[i], X[i+1], X[i+2], X[i+3])
		best = offer(best, k, neighbor{d0, Y[i]})
		best = offer(best, k, neighbor{d1, Y[i+1]})
		best = offer(best, k, neighbor{d2, Y[i+2]})
		best = offer(best, k, neighbor{d3, Y[i+3]})
	}
	for ; i < len(X); i++ {
		best = offer(best, k, neighbor{sqDist(X[i], x), Y[i]})
	}
	bestY, bestV := -1, -1
	for _, a := range best {
		v := 0
		for _, b := range best {
			if b.y == a.y {
				v++
			}
		}
		if v > bestV || (v == bestV && a.y < bestY) {
			bestY, bestV = a.y, v
		}
	}
	return bestY
}

// offer inserts c into best, which holds at most k neighbours in less
// order, dropping the last one when full.
func offer(best []neighbor, k int, c neighbor) []neighbor {
	if len(best) == k {
		if !c.less(best[k-1]) {
			return best
		}
		best = best[:k-1]
	}
	i := len(best)
	best = append(best, c)
	for ; i > 0 && c.less(best[i-1]); i-- {
		best[i] = best[i-1]
	}
	best[i] = c
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sqDist4 returns sqDist(r0, x) through sqDist(r3, x) as four independent
// sums, each adding its terms in feature order as sqDist does. The rows
// must be at least as long as x.
func sqDist4(x, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for i, v := range x {
		d0 := r0[i] - v
		d1 := r1[i] - v
		d2 := r2[i] - v
		d3 := r3[i] - v
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// featureWidth returns the common row length of a non-empty dataset.
func featureWidth(d Dataset) (int, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("ml: empty training set")
	}
	nf := len(d.X[0])
	for i, row := range d.X {
		if len(row) != nf {
			return 0, fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(row), nf)
		}
	}
	return nf, nil
}

// --- Gaussian naive Bayes ---

// GaussianNB is a Gaussian naive Bayes trainer.
type GaussianNB struct {
	// VarSmoothing is added to every per-feature variance for stability.
	VarSmoothing float64
}

type gnbModel struct {
	prior []float64   // log prior per class
	mean  [][]float64 // [class][feature]
	vari  [][]float64
}

// Fit implements Trainer.
func (g GaussianNB) Fit(d Dataset) (Classifier, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	smooth := g.VarSmoothing
	if smooth <= 0 {
		smooth = 1e-9
	}
	nc := d.NumClasses()
	nf := len(d.X[0])
	m := &gnbModel{
		prior: make([]float64, nc),
		mean:  make([][]float64, nc),
		vari:  make([][]float64, nc),
	}
	counts := make([]int, nc)
	for c := 0; c < nc; c++ {
		m.mean[c] = make([]float64, nf)
		m.vari[c] = make([]float64, nf)
	}
	for i, row := range d.X {
		c := d.Y[i]
		counts[c]++
		for f, v := range row {
			m.mean[c][f] += v
		}
	}
	for c := 0; c < nc; c++ {
		if counts[c] == 0 {
			m.prior[c] = math.Inf(-1)
			continue
		}
		for f := range m.mean[c] {
			m.mean[c][f] /= float64(counts[c])
		}
		m.prior[c] = math.Log(float64(counts[c]) / float64(d.Len()))
	}
	for i, row := range d.X {
		c := d.Y[i]
		for f, v := range row {
			dv := v - m.mean[c][f]
			m.vari[c][f] += dv * dv
		}
	}
	for c := 0; c < nc; c++ {
		if counts[c] == 0 {
			continue
		}
		for f := range m.vari[c] {
			m.vari[c][f] = m.vari[c][f]/float64(counts[c]) + smooth
		}
	}
	return m, nil
}

// Predict implements Classifier.
func (m *gnbModel) Predict(x []float64) int {
	best, bestLL := -1, math.Inf(-1)
	for c := range m.prior {
		ll := m.prior[c]
		if math.IsInf(ll, -1) {
			continue
		}
		for f, v := range x {
			dv := v - m.mean[c][f]
			ll += -0.5*math.Log(2*math.Pi*m.vari[c][f]) - dv*dv/(2*m.vari[c][f])
		}
		if ll > bestLL {
			best, bestLL = c, ll
		}
	}
	return best
}

// --- softmax regression ---

// Softmax is a multinomial logistic regression trainer optimized with
// full-batch gradient descent.
type Softmax struct {
	LR     float64
	Epochs int
	L2     float64
	Seed   uint64
}

type softmaxModel struct {
	w  [][]float64 // [class][feature]
	b  []float64
	nc int
}

// Fit implements Trainer. Descent is full-batch, so w is fixed within an
// epoch: every sample's logit gradient is computed before any of them is
// accumulated. Each logit and each gb[c] and gw[c][f] still adds its terms
// in feature and sample order, so the four-sample blocking changes no bit.
func (s Softmax) Fit(d Dataset) (Classifier, error) {
	nf, err := featureWidth(d)
	if err != nil {
		return nil, err
	}
	lr := s.LR
	if lr <= 0 {
		lr = 0.1
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	nc := d.NumClasses()
	m := &softmaxModel{w: make([][]float64, nc), b: make([]float64, nc), nc: nc}
	stream := rng.New(s.Seed)
	for c := range m.w {
		m.w[c] = make([]float64, nf)
		for f := range m.w[c] {
			m.w[c][f] = stream.NormMeanStd(0, 0.01)
		}
	}
	n := d.Len()
	// g[i*nc+c] holds sample i's logit for class c, then its gradient.
	g := make([]float64, n*nc)
	gw := make([]float64, nf)
	inv := 1.0 / float64(n)
	for e := 0; e < epochs; e++ {
		m.batchLogits(d.X, g)
		for i, y := range d.Y {
			p := g[i*nc : (i+1)*nc]
			softmaxInPlace(p)
			if y >= 0 {
				p[y]--
			}
		}
		// Every gradient is known, so class c's step needs only its own
		// sums: gw holds one class at a time.
		for c := 0; c < nc; c++ {
			for f := range gw {
				gw[f] = 0
			}
			gb := 0.0
			i := 0
			for ; i+4 <= n; i += 4 {
				g0, g1, g2, g3 := g[i*nc+c], g[(i+1)*nc+c], g[(i+2)*nc+c], g[(i+3)*nc+c]
				gb += g0
				gb += g1
				gb += g2
				gb += g3
				x0, x1, x2, x3 := d.X[i][:len(gw)], d.X[i+1][:len(gw)], d.X[i+2][:len(gw)], d.X[i+3][:len(gw)]
				for f := range gw {
					v := gw[f]
					v += g0 * x0[f]
					v += g1 * x1[f]
					v += g2 * x2[f]
					v += g3 * x3[f]
					gw[f] = v
				}
			}
			for ; i < n; i++ {
				gi := g[i*nc+c]
				gb += gi
				for f, v := range d.X[i][:len(gw)] {
					gw[f] += gi * v
				}
			}
			m.b[c] -= lr * gb * inv
			w := m.w[c][:len(gw)]
			for f := range w {
				w[f] -= lr * (gw[f]*inv + s.L2*w[f])
			}
		}
	}
	return m, nil
}

// batchLogits writes every row's logits to out, nc per row. Each logit
// adds b[c] and then w[c][f]*x[f] in feature order, as logits does; four
// rows run per pass as independent sums.
func (m *softmaxModel) batchLogits(X [][]float64, out []float64) {
	nc := m.nc
	for c, w := range m.w {
		b := m.b[c]
		i := 0
		for ; i+4 <= len(X); i += 4 {
			x0, x1, x2, x3 := X[i][:len(w)], X[i+1][:len(w)], X[i+2][:len(w)], X[i+3][:len(w)]
			s0, s1, s2, s3 := b, b, b, b
			for f, wf := range w {
				s0 += wf * x0[f]
				s1 += wf * x1[f]
				s2 += wf * x2[f]
				s3 += wf * x3[f]
			}
			out[i*nc+c], out[(i+1)*nc+c], out[(i+2)*nc+c], out[(i+3)*nc+c] = s0, s1, s2, s3
		}
		for ; i < len(X); i++ {
			s := b
			for f, v := range X[i][:len(w)] {
				s += w[f] * v
			}
			out[i*nc+c] = s
		}
	}
}

func (m *softmaxModel) logits(x []float64, out []float64) {
	for c := 0; c < m.nc; c++ {
		s := m.b[c]
		for f, v := range x {
			s += m.w[c][f] * v
		}
		out[c] = s
	}
}

func softmaxInPlace(v []float64) {
	maxV := math.Inf(-1)
	for _, x := range v {
		maxV = math.Max(maxV, x)
	}
	sum := 0.0
	for i, x := range v {
		e := math.Exp(x - maxV)
		v[i] = e
		sum += e
	}
	for i := range v {
		v[i] /= sum
	}
}

// Predict implements Classifier.
func (m *softmaxModel) Predict(x []float64) int {
	out := make([]float64, m.nc)
	m.logits(x, out)
	best, bestV := 0, math.Inf(-1)
	for c, v := range out {
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best
}
