package cnn

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// refClasses returns the reference's argmax class for every sample.
func refClasses(net *Network, samples []Sample) []int {
	classes := make([]int, len(samples))
	for i, s := range samples {
		acts := refForward(net, s.Input)
		classes[i] = tensor.Argmax(acts[len(acts)-1].Data())
	}
	return classes
}

// requireInferenceMatchesRef fails unless Forward, PredictAll and Evaluate
// on net agree with the reference on ref at tolerance 0.
func requireInferenceMatchesRef(t *testing.T, net, ref *Network, samples []Sample, ctx string) {
	t.Helper()
	want := refClasses(ref, samples)
	for i, s := range samples {
		acts := refForward(ref, s.Input)
		if got := net.Forward(s.Input); !tensor.Equal(got, acts[len(acts)-1], 0) {
			t.Fatalf("%s: sample %d: Forward %v, reference %v", ctx, i, got.Data(), acts[len(acts)-1].Data())
		}
	}
	got := net.PredictAll(samples)
	if len(got) != len(want) {
		t.Fatalf("%s: PredictAll returned %d classes for %d samples", ctx, len(got), len(want))
	}
	correct := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d: PredictAll %d, reference %d", ctx, i, got[i], want[i])
		}
		if want[i] == samples[i].Label {
			correct++
		}
	}
	if acc, refAcc := net.Evaluate(samples), float64(correct)/float64(len(samples)); acc != refAcc {
		t.Fatalf("%s: Evaluate %v, reference %v", ctx, acc, refAcc)
	}
}

// refLogits returns the reference logits of s.
func refLogits(net *Network, s Sample) []float64 {
	acts := refForward(net, s.Input)
	return acts[len(acts)-1].Data()
}

// TestInferenceMatchesReference pins every inference entry point to the
// per-sample reference at tolerance 0 on every batchNets() stack, for sample
// sets of one, just under, at and over a block, and several blocks with a
// partial tail. Each set runs on a never-trained network and on one trained
// a little, whose derived-weight caches the trainer built and invalidated.
//
// The stale-cache cases take a never-trained network whose first Evaluate
// built those caches, edit its weights in place — the Dense layers, or the
// replica kernels — and call Evaluate or PredictAll first: it must see the
// edits, as the reference does. Argmax classes can hide a stale weight, so
// the case also compares the logits of the last block that call ran, still
// in the final Dense layer's packed output.
func TestInferenceMatchesReference(t *testing.T) {
	negate := func(ts ...*tensor.Tensor) {
		for _, x := range ts {
			x.ScaleInPlace(-1)
		}
	}
	edits := map[string]func(n *Network){
		"dense weights": func(n *Network) {
			for _, l := range n.layers {
				if d, ok := l.(*Dense); ok {
					negate(d.weight)
				}
			}
		},
		"replica kernels": func(n *Network) {
			for _, l := range n.layers {
				if c, ok := l.(*Conv2D); ok {
					negate(c.repK...)
				}
			}
		},
	}
	for name, tc := range batchNets() {
		t.Run(name, func(t *testing.T) {
			trained, trainedRef := tc.build(), tc.build()
			trainBlocks(trained, tc.samples, 1, 8, blockSize, 2, replicaSGD{NewSGD(0.05, 0.9)})
			trainRef(trainedRef, tc.samples, 1, 8, replicaSGD{NewSGD(0.05, 0.9)})
			requireSameParams(t, trained, trainedRef, "trained")
			for _, k := range []int{1, 7, 8, 9, 19} {
				set := tc.samples[:k]
				requireInferenceMatchesRef(t, tc.build(), tc.build(), set, fmt.Sprintf("fresh, %d samples", k))
				requireInferenceMatchesRef(t, trained, trainedRef, set, fmt.Sprintf("trained, %d samples", k))
			}

			samples := tc.samples
			last := samples[(len(samples)-1)/blockSize*blockSize:]
			for editName, edit := range edits {
				if editName == "replica kernels" && !strings.HasPrefix(name, "local-") {
					continue
				}
				for _, first := range []string{"Evaluate", "PredictAll"} {
					ctx := fmt.Sprintf("%s edited before %s", editName, first)
					net, ref := tc.build(), tc.build()
					net.Evaluate(samples)
					before := refLogits(ref, last[0])
					edit(net)
					edit(ref)
					if slices.Equal(before, refLogits(ref, last[0])) {
						t.Fatalf("%s: the edit did not move the reference logits", ctx)
					}
					want := refClasses(ref, samples)
					switch first {
					case "Evaluate":
						correct := 0
						for i, c := range want {
							if c == samples[i].Label {
								correct++
							}
						}
						if acc, refAcc := net.Evaluate(samples), float64(correct)/float64(len(samples)); acc != refAcc {
							t.Fatalf("%s: Evaluate %v, reference %v", ctx, acc, refAcc)
						}
					case "PredictAll":
						if got := net.PredictAll(samples); !slices.Equal(got, want) {
							t.Fatalf("%s: PredictAll %v, reference %v", ctx, got, want)
						}
					}
					out := net.layers[len(net.layers)-1].(*Dense).outB
					nc := out.Dim(1)
					for j, s := range last {
						if got, want := out.Data()[j*nc:(j+1)*nc], refLogits(ref, s); !slices.Equal(got, want) {
							t.Fatalf("%s: last block sample %d: logits %v, reference %v", ctx, j, got, want)
						}
					}
					requireInferenceMatchesRef(t, net, ref, samples, ctx)
				}
			}
		})
	}
}

// TestMisShapedSamplesPanic pins the shape check where samples enter the
// network: training at any batch size, Forward, PredictAll and Evaluate all
// panic on a sample whose shape is not the input shape, naming the sample's
// index and both shapes.
func TestMisShapedSamplesPanic(t *testing.T) {
	flat := batchNets()["dense-only"]
	spatial := batchNets()["conv3x3-maxpool"]
	lounge := batchNets()["local-e2-lounge"]
	s := rng.New(61)
	withBad := func(samples []Sample, at int, shape ...int) []Sample {
		out := append([]Sample(nil), samples...)
		out[at] = Sample{Input: randomInput(s, shape...), Label: out[at].Label}
		return out
	}
	short := withBad(flat.samples, 5, 9)
	wide := withBad(spatial.samples, 3, 1, 6, 7)
	wider := withBad(lounge.samples, 2, 1, 17, 26)
	cases := []struct {
		name string
		run  func()
		want string
	}{
		{"fit batch 8, short vector", func() {
			flat.build().FitParallel(short, 1, 8, 1, NewSGD(0.05, 0.9), rng.New(1))
		}, "sample 5 has shape [9], network input is [10]"},
		{"fit batch 1, short vector", func() {
			flat.build().FitParallel(short, 1, 1, 1, NewSGD(0.05, 0.9), rng.New(1))
		}, "sample 5 has shape [9], network input is [10]"},
		{"fit batch 8, wide map", func() {
			spatial.build().FitParallel(wide, 1, 8, 1, NewSGD(0.05, 0.9), rng.New(1))
		}, "sample 3 has shape [1 6 7], network input is [1 6 6]"},
		{"fit batch 1, wide map", func() {
			spatial.build().FitParallel(wide, 1, 1, 1, NewSGD(0.05, 0.9), rng.New(1))
		}, "sample 3 has shape [1 6 7], network input is [1 6 6]"},
		{"Forward, wide lounge map", func() {
			lounge.build().Forward(wider[2].Input)
		}, "has shape [1 17 26], network input is [1 17 25]"},
		{"Forward, short vector", func() {
			flat.build().Forward(short[5].Input)
		}, "has shape [9], network input is [10]"},
		{"PredictAll, wide lounge map", func() {
			lounge.build().PredictAll(wider)
		}, "sample 2 has shape [1 17 26], network input is [1 17 25]"},
		{"Evaluate, wide map", func() {
			spatial.build().Evaluate(wide)
		}, "sample 3 has shape [1 6 7], network input is [1 6 6]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("accepted a mis-shaped sample")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not contain %q", msg, tc.want)
				}
			}()
			tc.run()
		})
	}
}

// TestNewNetworkRejectsShapes pins the shapes the engine carries: a (C,H,W)
// or (F) input and 1-D logits.
func TestNewNetworkRejectsShapes(t *testing.T) {
	s := rng.New(62)
	cases := []struct {
		name  string
		build func()
		want  string
	}{
		{"2-D input", func() {
			NewNetwork([]int{4, 5}, NewFlatten(), NewDense(20, 2, s))
		}, "network input shape [4 5]"},
		{"4-D input", func() {
			NewNetwork([]int{1, 1, 4, 5}, NewFlatten(), NewDense(20, 2, s))
		}, "network input shape [1 1 4 5]"},
		{"spatial output", func() {
			NewNetwork([]int{1, 6, 6}, NewConv2D(1, 2, 3, 3, 1, 1, s), NewReLU())
		}, "network output shape [2 6 6]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("NewNetwork accepted the shape")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not contain %q", msg, tc.want)
				}
			}()
			tc.build()
		})
	}
}
