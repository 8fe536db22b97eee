#!/bin/sh
# ci.sh — the gate every change must pass: build, vet, gofmt over every
# tracked Go file, the full test suite under the race detector (the
# data-parallel training path, the experiment fan-out that trains e1's and
# e2's fits and scores e8's failure patterns side by side, and the
# concurrent mixed-config runs make the race run load-bearing, not
# optional; it also runs TestSourceCheck), a 10 s fuzz of
# geom.SegmentIntersectsCircle against its distance oracle, a 10 s fuzz of
# wsn's FuzzShardedChurn (random Fail/Recover sequences against the
# all-pairs BFS oracle), a 10 s fuzz of zeiotd's submit decoder, a 10 s
# fuzz of the CNN checkpoint decoders (FuzzLoad: the reader E17's
# -checkpoint … -resume goes through), a 10 s fuzz of the MicroDeep
# checkpoint loader (FuzzRestoreTraining), a 10 s fuzz of the TDMA
# scheduler against its first-fit reference (FuzzBuildMatchesRef), a 10 s
# fuzz of the result-cache key (FuzzConfigKey), a build, vet and test of the
# zbench module (its own go.mod, which the root ./... never reaches), and
# the smokes that need the real zeiotbench and zeiotd binaries: e1 at seed
# 1 through the CLI must emit exactly the checked-in golden JSON, with and
# without -metrics-out; the -quant golden of e13; comma-list, -nodes and
# -modalities runs; every flag-rejection exit code; e17's kill/resume
# flow; and the daemon's submit, cache and SIGTERM drain. The goldens of
# every experiment, serial and at several training workers, and the
# designer example's output are go test's (TestGoldenDefaultConfig,
# TestMetricsGolden, TestOutputGolden), so no step here repeats one of
# their rows.
set -eux

go build ./...
go vet ./...
# Formatting gate: gofmt -l must list no tracked Go file.
gofiles="$(git ls-files '*.go')"
test -n "$gofiles"
unformatted="$(gofmt -l $gofiles)"
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists: $unformatted" >&2
    exit 1
fi
go test -race ./...
# Fuzz step: the squared-distance test in SegmentIntersectsCircle must
# agree with SegmentPointDist(a, b, c) <= r on every fuzzed input.
go test -run '^$' -fuzz FuzzSegmentIntersectsCircle -fuzztime 10s ./internal/geom
# Fuzz step: under arbitrary churn the routing core's hop counts and routes
# must agree with the all-pairs BFS oracle of the wsn tests.
go test -run '^$' -fuzz FuzzShardedChurn -fuzztime 10s ./internal/wsn
# Fuzz step: POST /jobs decodes network input; any body must answer 200,
# 202, 400, 413 (past the body limit) or 429 without a panic, every 2xx
# with the config's ConfigKey.
go test -run '^$' -fuzz FuzzSubmit -fuzztime 10s ./cmd/zeiotd
# Fuzz step: the checkpoint decoders E17's -resume reads must reject any
# garbage without a panic, and every trainer they accept must take a step.
go test -run '^$' -fuzz FuzzLoad -fuzztime 10s ./internal/cnn
# Fuzz step: Model.RestoreTraining must reject any garbage without a panic,
# and every checkpoint it accepts must leave a model that runs a
# distributed forward pass and a training step.
go test -run '^$' -fuzz FuzzRestoreTraining -fuzztime 10s ./internal/microdeep
# Fuzz step: on any plan over a small grid, schedule.Build must place every
# transfer where the first-fit reference does, and the schedule must pass
# Validate.
go test -run '^$' -fuzz FuzzBuildMatchesRef -fuzztime 10s ./internal/schedule
# Fuzz step: two valid configs share a ConfigKey exactly when their
# CanonicalConfig texts are equal, and spellings the canonical form
# normalizes (SampleScale 0 for 1, -0 for +0, Modalities as a set) share one.
go test -run '^$' -fuzz FuzzConfigKey -fuzztime 10s .
# zbench is a module of its own (replace zeiot => ../), so the steps above
# never compile it; a deleted or renamed API it calls fails here.
(cd zbench && go build ./... && go vet ./... && go test ./...)

smoke="$(mktemp)"
m1="$(mktemp)"
trap 'rm -f "$smoke" "$m1"' EXIT
go run ./cmd/zeiotbench -e e1 -seed 1 -json > "$smoke"
diff -u testdata/e1_seed1.golden.json "$smoke"

# Mixed-config parallel smoke: per-run flags take comma lists matching -e,
# so differently-configured experiments legally share one -parallel run.
go run ./cmd/zeiotbench -e e1,e7 -parallel 2 -trainworkers 1,4 -samples 0.5,1 -repeats 1,2 -timings > /dev/null

# The satellite bugfix: loss options without -loss must be an explicit
# error (exit 2), not silently ignored.
if go run ./cmd/zeiotbench -e e7 -lossretries 5 > /dev/null 2>&1; then
    echo "zeiotbench accepted -lossretries without -loss" >&2
    exit 1
fi

# Quantized-inference smoke: e13 at seed 1 with -quant must emit exactly
# the checked-in golden through the binary, int8 rows included (the same
# bytes TestGoldenDefaultConfig's e13_quant row pins in process).
go run ./cmd/zeiotbench -e e13 -seed 1 -quant=true -json > "$m1"
diff -u testdata/e13_quant_seed1.golden.json "$m1"
grep -q quant "$m1"

# Observability smoke. No regression: running e1 with metrics collection
# enabled must still emit exactly the golden JSON (the metrics block stays
# out of -json without -metrics, and recording must not perturb results).
go run ./cmd/zeiotbench -e e1 -seed 1 -json -metrics-out "$m1" > "$smoke"
diff -u testdata/e1_seed1.golden.json "$smoke"
# The export is non-trivial: training curves and cache stats are present.
grep -q zeiot_e1_optimal_train_loss "$m1"
grep -q zeiot_e1_wsn_route_cache_hits "$m1"

# Checkpoint kill/resume smoke: a simulated power failure must exit
# nonzero after writing the checkpoint, and the resumed run must emit the
# byte-identical golden of an uninterrupted run.
ck="$(mktemp -u)"
if go run ./cmd/zeiotbench -e e17 -seed 1 -checkpoint "$ck" -killafter 200 -json > /dev/null 2>&1; then
    echo "killed e17 run exited zero" >&2
    exit 1
fi
test -s "$ck"
go run ./cmd/zeiotbench -e e17 -seed 1 -checkpoint "$ck" -resume -json > "$smoke"
rm -f "$ck"
diff -u testdata/e17_seed1.golden.json "$smoke"

# Kill/resume flags without a checkpoint path must be an explicit error.
if go run ./cmd/zeiotbench -e e17 -killafter 5 > /dev/null 2>&1; then
    echo "zeiotbench accepted -killafter without -checkpoint" >&2
    exit 1
fi

# The -nodes ownership rule: comma lists scope the override to the
# experiments that own a free-scale deployment (e16 honours 3000, e7's
# paper-fixed link budget ignores its 0 entry and stays golden).
go run ./cmd/zeiotbench -e e16,e7 -nodes 3000,0 -samples 0.05,1 -seed 1 -json > /dev/null

# The -modalities filter changes which matrix rows appear, never the values
# of the rows that remain: the filtered run's gait row must match the full
# run's gait row byte for byte.
go run ./cmd/zeiotbench -e e18 -seed 1 -modalities gait,gait+vitals -json > "$m1"
grep '"acc_gait"' "$m1" > "$smoke"
grep '"acc_gait"' testdata/e18_seed1.golden.json | diff -u "$smoke" -
grep -q '"acc_gait_vitals"' "$m1"

# Unknown modality names must be an explicit error, not an empty matrix.
if go run ./cmd/zeiotbench -e e18 -modalities sonar > /dev/null 2>&1; then
    echo "zeiotbench accepted an unknown -modalities name" >&2
    exit 1
fi

# Checkpoint-broadcast regression (PR 10): the checkpoint flags drive one
# experiment's kill/resume flow, so a multi-experiment selection and a
# non-owning experiment must both be explicit errors, never a silent
# broadcast.
if go run ./cmd/zeiotbench -e e1,e17 -checkpoint /tmp/never-written.ck -resume > /dev/null 2>&1; then
    echo "zeiotbench accepted a multi-experiment -checkpoint run" >&2
    exit 1
fi
if go run ./cmd/zeiotbench -e e1 -checkpoint /tmp/never-written.ck -resume > /dev/null 2>&1; then
    echo "zeiotbench accepted -checkpoint for a non-owning experiment" >&2
    exit 1
fi

# Simulation-service smoke (PR 10): build the daemon (a real binary, so the
# SIGTERM below reaches it directly — `go run` does not forward signals),
# submit e1 through the HTTP path, and require the result byte-identical to
# the checked-in golden; a resubmission must be served from cache with the
# identical bytes; SIGTERM must drain cleanly.
zd="$(mktemp -d)"
go build -o "$zd/zeiotd" ./cmd/zeiotd
"$zd/zeiotd" -addr 127.0.0.1:0 -addrfile "$zd/addr" -workers 2 > "$zd/log" 2>&1 &
zd_pid=$!
trap 'kill "$zd_pid" 2>/dev/null || true; rm -f "$smoke" "$m1"; rm -rf "$zd"' EXIT
for _ in $(seq 50); do test -s "$zd/addr" && break; sleep 0.1; done
zd_url="http://$(cat "$zd/addr")"
job="$(curl -sf -X POST "$zd_url/jobs" -d '{"experiment":"e1","config":{"Seed":1}}')"
jid="$(printf '%s' "$job" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')"
for _ in $(seq 600); do
    state="$(curl -sf "$zd_url/jobs/$jid" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')"
    case "$state" in done|failed|canceled) break ;; esac
    sleep 0.5
done
test "$state" = done
curl -sf "$zd_url/jobs/$jid/result" > "$smoke"
diff -u testdata/e1_seed1.golden.json "$smoke"
# Resubmit: must hit the cache (HTTP 200, cache_hit true) and serve the
# byte-identical result.
hit="$(curl -sf -X POST "$zd_url/jobs" -d '{"experiment":"e1","config":{"Seed":1}}')"
printf '%s' "$hit" | grep -q '"cache_hit": true'
hid="$(printf '%s' "$hit" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')"
curl -sf "$zd_url/jobs/$hid/result" > "$m1"
diff -u "$smoke" "$m1"
curl -sf "$zd_url/metrics" | grep -q '^zeiotd_cache_hits 1$'
# SIGTERM: the daemon drains (statuses flushed, summary printed) and exits 0.
kill -TERM "$zd_pid"
wait "$zd_pid"
grep -q 'zeiotd: drained: done=2 failed=0 canceled=0' "$zd/log"
rm -rf "$zd"
