package cnn

import (
	"bytes"
	"strings"
	"testing"

	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	net := buildTinyNet(1)
	s := rng.New(5)
	// Train a little so weights are not just init values.
	var samples []Sample
	for i := 0; i < 40; i++ {
		samples = append(samples, Sample{Input: randomInput(s, 1, 6, 6), Label: i % 3})
	}
	net.FitParallel(samples, 3, 8, 1, NewSGD(0.02, 0.9), s.Split("fit"))

	// A blob without optimizer state restores the weights into a network of
	// the same architecture.
	var buf bytes.Buffer
	if err := net.SaveTraining(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded := buildTinyNet(2)
	if _, err := loaded.RestoreTraining(&buf, nil); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		in := randomInput(s, 1, 6, 6)
		if !tensor.Equal(net.Forward(in), loaded.Forward(in), 0) {
			t.Fatal("loaded network diverges from original")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, data := range []string{"not a gob", ""} {
		if _, _, err := decodeBlob(strings.NewReader(data)); err == nil {
			t.Errorf("network blob %q decoded", data)
		}
		if _, err := buildTinyNet(1).RestoreTraining(strings.NewReader(data), nil); err == nil {
			t.Errorf("RestoreTraining accepted %q", data)
		}
		if _, err := ResumeTrainer(strings.NewReader(data), nil, 1); err == nil {
			t.Errorf("ResumeTrainer accepted %q", data)
		}
	}
}
