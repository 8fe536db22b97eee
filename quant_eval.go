package zeiot

// Shared int8-quantization evaluation used by the CNN experiments when
// RunConfig.Quantize is on. Everything here runs strictly after an
// experiment's float results are computed and only adds summary keys and
// table rows, so default-config outputs keep their bytes.

import (
	"zeiot/internal/cnn"
)

// quantEval lowers a trained float CNN to int8 fixed point (calibrating the
// activation scales on calib), scores it over test, and publishes
// quantized-vs-float agreement counters under prefix on the run's recorder.
// It returns the quantized accuracy and the fraction of test inputs where
// int8 and float inference pick the same class.
func (h *harness) quantEval(prefix string, net *cnn.Network, calib, test []cnn.Sample) (qacc, agree float64, err error) {
	qn, err := cnn.QuantizeNetwork(net, calib)
	if err != nil {
		return 0, 0, err
	}
	correct, same := 0, 0
	for i, fc := range net.PredictAll(test) {
		qc := qn.Classify(test[i].Input)
		if qc == test[i].Label {
			correct++
		}
		if qc == fc {
			same++
		}
	}
	n := len(test)
	if n == 0 {
		return 0, 1, nil
	}
	qacc = float64(correct) / float64(n)
	agree = float64(same) / float64(n)
	if rec := h.cfg.Recorder; rec != nil {
		rec.Add(prefix+"quant_agree_total", int64(same))
		rec.Add(prefix+"quant_disagree_total", int64(n-same))
		rec.Gauge(prefix+"quant_accuracy", qacc)
	}
	return qacc, agree, nil
}
