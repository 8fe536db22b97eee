package cnn

import (
	"math"

	"zeiot/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba, 2015) with bias correction.
// Per-parameter first and second moment estimates live in the optimizer,
// keyed by parameter tensor, like SGD's velocities.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	step                  int
	m, v                  map[*tensor.Tensor]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1 = 0.9, β2 = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*tensor.Tensor]*tensor.Tensor),
		v: make(map[*tensor.Tensor]*tensor.Tensor),
	}
}

// Step applies one Adam update with gradients averaged over batch.
func (a *Adam) Step(params, grads []*tensor.Tensor, batch int) {
	if len(params) != len(grads) {
		panic("cnn: params/grads length mismatch")
	}
	if batch <= 0 {
		batch = 1
	}
	a.step++
	inv := 1.0 / float64(batch)
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		g := grads[i]
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Shape()...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Shape()...)
		}
		v := a.v[p]
		pd, gd, md, vd := p.Data(), g.Data(), m.Data(), v.Data()
		for j := range pd {
			grad := gd[j] * inv
			md[j] = a.Beta1*md[j] + (1-a.Beta1)*grad
			vd[j] = a.Beta2*vd[j] + (1-a.Beta2)*grad*grad
			mHat := md[j] / c1
			vHat := vd[j] / c2
			pd[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// StepNetwork applies Step to every parameterized layer of n.
func (a *Adam) StepNetwork(n *Network, batch int) {
	for _, l := range n.layers {
		if pl, ok := l.(ParamLayer); ok {
			a.Step(pl.Params(), pl.Grads(), batch)
		}
	}
}
