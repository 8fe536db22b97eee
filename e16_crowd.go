package zeiot

import (
	"context"
	"fmt"
	"math"

	"zeiot/internal/backscatter"
	"zeiot/internal/geom"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// RunE16Crowd exercises the crowd-scale deployment the paper's vision
// statement sketches (§I, §III.C): a stadium-concourse field of 10⁵
// zero-energy relay nodes, thousands of mobile backscatter tags carried by
// people, ambient carrier base stations, and continuous node churn. Tag
// detections route hop-by-hop to a central sink across the WSN core's shard
// overlay, so the experiment doubles as the scale/churn stress test of the
// routing layer: its summary exposes the rebuild counters that prove a flip
// repairs one shard instead of recomputing the world.
//
// Scale knobs: RunConfig.Nodes overrides the 100,000-node default (the ci.sh
// smoke and the nodes/sec benchmark run smaller fields); SampleScale scales
// the simulated step count and tag population as usual.
func RunE16Crowd(ctx context.Context, rc *RunConfig) (*Result, error) {
	h, err := beginRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	nodes := h.cfg.Nodes
	if nodes == 0 {
		nodes = 100_000
	}
	if nodes < 64 {
		return nil, fmt.Errorf("e16: Nodes = %d below the 64-node floor the crowd geometry needs", nodes)
	}

	// Relay field: a 2 m-pitch grid truncated to exactly `nodes` devices
	// (last row may be partial), radio range 3 m so diagonals link and a
	// failed node never partitions its neighbourhood. Fields above ~1k
	// nodes tile into several shards joined by the gateway overlay.
	const spacing = 2.0
	rows := int(math.Sqrt(float64(nodes)))
	cols := (nodes + rows - 1) / rows
	positions := make([]geom.Point, nodes)
	for i := range positions {
		positions[i] = geom.Point{X: float64(i%cols) * spacing, Y: float64(i/cols) * spacing}
	}
	w := wsn.New(positions, 3.0)
	width := float64(cols-1) * spacing
	height := float64(rows-1) * spacing
	sink := (rows/2)*cols + cols/2

	steps := h.cfg.scaled(30)
	numTags := h.cfg.scaled(max(1, nodes/50))
	churnPerStep := max(1, nodes/10_000)

	// Mobile tags: random walk at pedestrian speed, reflecting at the
	// field boundary. Positions and velocities come from their own stream
	// so the channel draws below stay aligned across tag-count scalings.
	tagRng := rng.New(h.cfg.Seed).Split("e16-tags")
	churnRng := rng.New(h.cfg.Seed).Split("e16-churn")
	chanRng := rng.New(h.cfg.Seed).Split("e16-chan")
	type mobile struct{ pos, vel geom.Point }
	tags := make([]mobile, numTags)
	for i := range tags {
		speed := 1.0 + 0.6*tagRng.Float64()
		ang := 2 * math.Pi * tagRng.Float64()
		tags[i] = mobile{
			pos: geom.Point{X: tagRng.Float64() * width, Y: tagRng.Float64() * height},
			vel: geom.Point{X: speed * math.Cos(ang), Y: speed * math.Sin(ang)},
		}
	}

	// Ambient carrier base stations sit on a 16 m grid over the field; the
	// tag backscatters the nearest one's carrier. The link model is the
	// paper's ZigBee-backscatter testbed channel with per-attempt body
	// blockage: each human body crossing the short tag→receiver link adds
	// radio.BodyAttenuationDB of conversion loss, which is what keeps the
	// detection rate below 1 in a dense crowd.
	const bsPitch = 16.0
	link := radio.BackscatterLink{
		Model:       radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.4, ShadowSigmaDB: 3},
		TagLossDB:   6,
		SourceTxDBm: 36,
	}
	tagRadio := backscatter.NewTag(0, geom.Point{}, link)
	noise := radio.ThermalNoiseDBm(250e3, 6)
	const cancellationDB = 60.0
	const packetBits = 96

	// nearestLiveGrid returns the nearest live relay among the (up to) four
	// grid nodes around p, or -1 when churn opened a coverage hole there.
	nearestLiveGrid := func(p geom.Point) int {
		cx := int(p.X / spacing)
		cy := int(p.Y / spacing)
		best, bestD := -1, math.Inf(1)
		for dy := 0; dy <= 1; dy++ {
			for dx := 0; dx <= 1; dx++ {
				gx, gy := cx+dx, cy+dy
				if gx < 0 || gx >= cols || gy < 0 {
					continue
				}
				id := gy*cols + gx
				if id >= nodes || w.Node(id).Failed {
					continue
				}
				if d := geom.Dist(p, positions[id]); d < bestD {
					best, bestD = id, d
				}
			}
		}
		return best
	}
	nearestBS := func(p geom.Point) geom.Point {
		snap := func(v, limit float64) float64 {
			g := math.Round(v/bsPitch) * bsPitch
			return math.Min(math.Max(g, 0), limit)
		}
		return geom.Point{X: snap(p.X, width), Y: snap(p.Y, height)}
	}
	h.mark(StageDataset)

	var (
		attempts, detections, holes int
		routable, unroutable        int
		hopSum                      int
		reports, reportHops         int
		failsApplied, recovers      int
		energyJ                     float64
		failQueue                   []int
	)
	res := &Result{
		ID:         "e16",
		Title:      "Crowd-scale backscatter field: churn, detection, sharded routing",
		PaperClaim: "§I/§III.C vision — 10⁵-device deployments; measured here over the PR 7 hierarchical core",
		Header:     []string{"step", "live", "detections", "rate", "holes", "shard_rebuilds"},
		Summary:    map[string]float64{},
	}
	for step := 0; step < steps; step++ {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		// Node churn: fail churnPerStep random live relays (never the
		// sink); once the backlog exceeds four steps of churn, field
		// maintenance recovers the oldest failures FIFO.
		for c := 0; c < churnPerStep; c++ {
			for tries := 0; tries < 64; tries++ {
				id := churnRng.Intn(nodes)
				if id == sink || w.Node(id).Failed {
					continue
				}
				w.Fail(id)
				failQueue = append(failQueue, id)
				failsApplied++
				break
			}
		}
		if len(failQueue) > 4*churnPerStep {
			for c := 0; c < churnPerStep && len(failQueue) > 0; c++ {
				w.Recover(failQueue[0])
				failQueue = failQueue[1:]
				recovers++
			}
		}

		// Tag motion (1 s timestep) and detection attempts.
		stepDet, stepHoles := 0, 0
		for i := range tags {
			t := &tags[i]
			t.pos.X += t.vel.X
			t.pos.Y += t.vel.Y
			if t.pos.X < 0 {
				t.pos.X, t.vel.X = -t.pos.X, -t.vel.X
			} else if t.pos.X > width {
				t.pos.X, t.vel.X = 2*width-t.pos.X, -t.vel.X
			}
			if t.pos.Y < 0 {
				t.pos.Y, t.vel.Y = -t.pos.Y, -t.vel.Y
			} else if t.pos.Y > height {
				t.pos.Y, t.vel.Y = 2*height-t.pos.Y, -t.vel.Y
			}
			rx := nearestLiveGrid(t.pos)
			if rx < 0 {
				holes++
				stepHoles++
				continue
			}
			attempts++
			bs := nearestBS(t.pos)
			bodies := chanRng.Intn(4)
			tagRadio.Link.TagLossDB = link.TagLossDB + float64(bodies)*radio.BodyAttenuationDB
			pr := tagRadio.TransmitPacket(
				geom.Dist(bs, t.pos), geom.Dist(t.pos, positions[rx]), geom.Dist(bs, positions[rx]),
				packetBits, noise, cancellationDB, chanRng)
			energyJ += pr.EnergyJ
			if !pr.Delivered {
				continue
			}
			detections++
			stepDet++
			// Hops(sink, rx): the sink-anchored direction lets one cached
			// overlay state serve every detection this step.
			if hp := w.Hops(sink, rx); hp >= 0 {
				routable++
				hopSum += hp
				// Every 64th detection escalates to a full report routed
				// hop-by-hop to the sink (charges per-node counters).
				if detections%64 == 0 {
					sent, err := w.Send(rx, sink, 4)
					if err != nil {
						return nil, err
					}
					reports++
					reportHops += sent
				}
			} else {
				unroutable++
			}
		}
		_, shardRebuilds, _ := w.RebuildStats()
		live := len(w.Live())
		stepRate := float64(stepDet) / float64(numTags)
		res.Rows = append(res.Rows, []string{
			fi(step), fi(live), fi(stepDet), f3(stepRate), fi(stepHoles), fi(int(shardRebuilds)),
		})
		if rec := h.cfg.Recorder; rec != nil {
			rec.Observe("crowd_detections_per_step", float64(stepDet))
			rec.Observe("crowd_live_nodes", float64(live))
		}
	}
	h.mark(StageCharge)

	full, shard, overlay := w.RebuildStats()
	rHits, rMisses := w.RouteCacheStats()
	meanHops := 0.0
	if routable > 0 {
		meanHops = float64(hopSum) / float64(routable)
	}
	detRate := 0.0
	if attempts > 0 {
		detRate = float64(detections) / float64(attempts)
	}
	res.Summary["nodes"] = float64(nodes)
	res.Summary["shards"] = float64(w.NumShards())
	res.Summary["tags"] = float64(numTags)
	res.Summary["steps"] = float64(steps)
	res.Summary["fails"] = float64(failsApplied)
	res.Summary["recovers"] = float64(recovers)
	res.Summary["detect_attempts"] = float64(attempts)
	res.Summary["detections"] = float64(detections)
	res.Summary["detection_rate"] = detRate
	res.Summary["coverage_holes"] = float64(holes)
	res.Summary["mean_hops_to_sink"] = meanHops
	res.Summary["unroutable"] = float64(unroutable)
	res.Summary["reports_sent"] = float64(reports)
	res.Summary["report_hops"] = float64(reportHops)
	res.Summary["tag_energy_uj"] = energyJ * 1e6
	res.Summary["full_rebuilds"] = float64(full)
	res.Summary["shard_rebuilds"] = float64(shard)
	res.Summary["overlay_builds"] = float64(overlay)
	res.Summary["route_cache_hits"] = float64(rHits)
	res.Summary["route_cache_misses"] = float64(rMisses)
	if rec := h.cfg.Recorder; rec != nil {
		// Gauges only at this scale: per-node Tx/Rx series would emit 2N
		// points, so E16 skips observeWSN's series and publishes the
		// routing-cache and rebuild counters directly.
		rec.Gauge("crowd_nodes", float64(nodes))
		rec.Gauge("crowd_detection_rate", detRate)
		h.observeWSNCaches("wsn_", w)
	}
	res.Rows = append(res.Rows, []string{
		"total", fi(len(w.Live())), fi(detections), f3(detRate), fi(holes), fi(int(shard)),
	})
	res.Notes = fmt.Sprintf(
		"%d-node relay grid (2 m pitch, %d shards), %d mobile tags, %d fails/%d recovers; "+
			"ambient 16 m base-station grid, 36 dBm carriers, 60 dB cancellation, per-attempt body blockage; "+
			"full structural builds: %d (churn repairs shards, never the world)",
		nodes, w.NumShards(), numTags, failsApplied, recovers, full)
	return h.finish(res), nil
}
