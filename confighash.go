package zeiot

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
)

// configKeyVersion tags the canonical serialization format. Bump it whenever
// a RunConfig field is added or removed or a normalization rule changes, so
// stale cache entries keyed under the old format can never be served for a
// config the old format could not describe.
const configKeyVersion = "v2"

// CanonicalConfig renders (experiment, cfg) in the canonical text form that
// ConfigKey hashes: one `field=value` line per knob, in fixed field order,
// with semantically identical configs rendering to identical bytes:
//
//   - SampleScale 0 renders as 1 (beginRun's normalization),
//   - Harvest.PowerScale 0 renders as 1 and Profile "" as "mixed"
//     (HarvestConfig documents both pairs as equivalent),
//   - Modalities render as a sorted, deduplicated set (the normalization
//     beginRun applies before any experiment reads them),
//   - Recorder is excluded: observation never changes any result byte, so
//     two configs differing only in their recorder are the same run.
//
// A nil cfg renders as DefaultRunConfig(). The form is stable across
// processes — no addresses, no map iteration order — which is what makes it
// usable as a result-cache key for cmd/zeiotd.
func CanonicalConfig(experiment string, cfg *RunConfig) string {
	if cfg == nil {
		cfg = DefaultRunConfig()
	}
	scale := cfg.SampleScale
	if scale == 0 {
		scale = 1
	}
	hscale := cfg.Harvest.PowerScale
	if hscale == 0 {
		hscale = 1
	}
	hprof := cfg.Harvest.Profile
	if hprof == "" {
		hprof = "mixed"
	}
	mods := canonicalModalities(cfg.Modalities)

	var b strings.Builder
	put := func(field, value string) {
		b.WriteString(field)
		b.WriteByte('=')
		b.WriteString(value)
		b.WriteByte('\n')
	}
	put("version", configKeyVersion)
	put("experiment", experiment)
	put("seed", strconv.FormatUint(cfg.Seed, 10))
	put("trainworkers", strconv.Itoa(cfg.TrainWorkers))
	put("loss.enabled", strconv.FormatBool(cfg.Loss.Enabled))
	put("loss.dropprob", canonFloat(cfg.Loss.DropProb))
	put("loss.burst", strconv.FormatBool(cfg.Loss.Burst))
	put("loss.maxretries", strconv.Itoa(cfg.Loss.MaxRetries))
	put("samplescale", canonFloat(scale))
	put("repeats", strconv.Itoa(cfg.Repeats))
	put("nodes", strconv.Itoa(cfg.Nodes))
	put("quantize", strconv.FormatBool(cfg.Quantize))
	put("harvest.powerscale", canonFloat(hscale))
	put("harvest.profile", hprof)
	put("checkpoint.path", strconv.Quote(cfg.Checkpoint.Path))
	put("checkpoint.killafter", strconv.Itoa(cfg.Checkpoint.KillAfterBatches))
	put("checkpoint.resume", strconv.FormatBool(cfg.Checkpoint.Resume))
	put("modalities", strings.Join(mods, ","))
	return b.String()
}

// ConfigKey returns the canonical cache key for running experiment under
// cfg: the hex SHA-256 of CanonicalConfig. Two configs share a key exactly
// when every knob an experiment can read is semantically identical, so a
// result cache keyed by it may legally serve either run the other's bytes.
// Invalid configs have no meaningful key and are rejected.
func ConfigKey(experiment string, cfg *RunConfig) (string, error) {
	if _, err := FindExperiment(experiment); err != nil {
		return "", err
	}
	if cfg != nil {
		if err := cfg.Validate(); err != nil {
			return "", err
		}
	}
	sum := sha256.Sum256([]byte(CanonicalConfig(experiment, cfg)))
	return hex.EncodeToString(sum[:]), nil
}

// canonicalModalities returns the sorted, deduplicated form of a modality
// list — the set semantics RunConfig.Modalities documents. A nil or empty
// list stays empty (every registered modality).
func canonicalModalities(mods []string) []string {
	if len(mods) == 0 {
		return nil
	}
	out := append([]string(nil), mods...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// canonFloat renders a float in the shortest decimal form that round-trips,
// normalizing negative zero, so equal values always serialize identically.
func canonFloat(v float64) string {
	if v == 0 {
		v = 0 // collapse -0 onto +0
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
