package microdeep

import (
	"fmt"

	"zeiot/internal/wsn"
)

// ChargeForward charges w's per-node counters with the traffic of one
// distributed forward pass under assignment a. Per stage it uses the
// cheaper of two transfer plans and returns the total scalar-hops charged:
//
//   - raw shipping: every dependency site's output vector travels once to
//     each distinct node hosting one of its consumers (deduplicated
//     broadcast); or
//   - in-network aggregation: because every stage's unit is an associative
//     reduction over its inputs (weighted partial sums for conv and dense,
//     running max for pool), each node on the routing tree toward the
//     consumer forwards one partial aggregate of the consumer's width
//     instead of the raw inputs. This is what keeps MicroDeep's per-node
//     peak traffic a small fraction of a ship-everything deployment.
func ChargeForward(g *Graph, a Assignment, w *wsn.Network) (int, error) {
	return charge(g, a, w, false)
}

// ChargeBackward charges the traffic of one distributed backward pass: the
// transpose of the forward plan. Under raw shipping, consumer nodes return
// aggregated activation gradients to each producer; under aggregation, the
// consumer's error signal is broadcast down the same routing tree (one
// vector of the consumer's width per tree edge) and each node applies it to
// its local partial. Weight-gradient traffic is charged separately (see
// ChargeWeightSync) because the local-update mode eliminates it.
func ChargeBackward(g *Graph, a Assignment, w *wsn.Network) (int, error) {
	return charge(g, a, w, true)
}

// Transfer is one single-hop link transmission of the distributed forward
// pass: From transmits Scalars values to its direct neighbour To during the
// processing of stage Stage. The full per-sample traffic is the ordered
// list Plan returns; ChargeForward/ChargeBackward apply it to the
// counters, and package-external schedulers (internal/schedule) turn it
// into collision-free TDMA rounds.
type Transfer struct {
	From, To int
	Scalars  int
	Stage    int
}

// Plan computes the forward-pass link transmissions for g under a. Per
// stage it picks the cheaper of raw dependency shipping (deduplicated per
// (dep, consumer-node) and expanded hop by hop) and in-network aggregation
// (one partial-aggregate vector per routing-tree edge); see ChargeForward
// for why both plans are available. The order is deterministic: stages in
// graph order, transfers in site/dependency order.
//
// Plans are memoized per (graph, assignment, topology epoch) — see
// plancache.go — so repeated calls with unchanged inputs replay the cached
// list. The returned slice is a fresh copy the caller owns.
func Plan(g *Graph, a Assignment, w *wsn.Network) ([]Transfer, error) {
	plan, err := planFor(g, a, w)
	if err != nil {
		return nil, err
	}
	return append([]Transfer(nil), plan...), nil
}

// computePlan builds the transfer plan from scratch. rawSeen and edgeSeen
// are caller-provided scratch bitsets (reused across calls to avoid the
// per-stage map churn the dedup otherwise costs). touch collects the shards
// of every consulted route — both candidate plans, not just the winner,
// because a flip on a rejected candidate's route can flip the cost
// comparison itself — for the plan-cache signature.
func computePlan(g *Graph, a Assignment, w *wsn.Network, rawSeen, edgeSeen *bitset, touch *shardTouch) ([]Transfer, error) {
	numNodes := w.NumNodes()
	rawSeen.ensure(len(g.Sites) * numNodes)
	edgeSeen.ensure(numNodes * numNodes)
	var plan []Transfer
	for si := 1; si < len(g.Stages); si++ {
		st := g.Stages[si]
		// Plan A: raw shipping, deduplicated per (dep, consumer node).
		rawSeen.reset()
		var rawPlan []Transfer
		rawCost := 0
		for _, sid := range st.Sites {
			tn := a.NodeOf[sid]
			for _, dep := range g.Sites[sid].Deps {
				dn := a.NodeOf[dep]
				if dn == tn {
					continue
				}
				if rawSeen.testSet(dep*numNodes + tn) {
					continue
				}
				route, err := w.Route(dn, tn)
				if err != nil {
					return nil, fmt.Errorf("microdeep: planning site %d: %w", dep, err)
				}
				touch.addRoute(w, route)
				width := g.Sites[dep].Width
				for k := 0; k+1 < len(route); k++ {
					rawPlan = append(rawPlan, Transfer{From: route[k], To: route[k+1], Scalars: width, Stage: si})
					rawCost += width
				}
			}
		}
		// Plan B: per-consumer aggregation trees (union of routes from
		// every dependency's node to the consumer's node), edges ordered
		// leaf-to-root so partial aggregates flow correctly.
		var aggPlan []Transfer
		aggCost := 0
		for _, sid := range st.Sites {
			tn := a.NodeOf[sid]
			edgeSeen.reset()
			var edges []Transfer
			for _, dep := range g.Sites[sid].Deps {
				dn := a.NodeOf[dep]
				if dn == tn {
					continue
				}
				route, err := w.Route(dn, tn)
				if err != nil {
					return nil, fmt.Errorf("microdeep: planning site %d: %w", sid, err)
				}
				touch.addRoute(w, route)
				for k := 0; k+1 < len(route); k++ {
					if edgeSeen.testSet(route[k]*numNodes + route[k+1]) {
						continue
					}
					edges = append(edges, Transfer{From: route[k], To: route[k+1], Scalars: g.Sites[sid].Width, Stage: si})
				}
			}
			aggPlan = append(aggPlan, edges...)
			aggCost += len(edges) * g.Sites[sid].Width
		}
		if rawCost <= aggCost {
			plan = append(plan, rawPlan...)
		} else {
			plan = append(plan, aggPlan...)
		}
	}
	return plan, nil
}

func charge(g *Graph, a Assignment, w *wsn.Network, reverse bool) (int, error) {
	plan, err := planFor(g, a, w)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, tr := range plan {
		from, to := tr.From, tr.To
		if reverse {
			from, to = to, from
		}
		w.Node(from).TxScalars += tr.Scalars
		w.Node(to).RxScalars += tr.Scalars
		total += tr.Scalars
	}
	return total, nil
}

// ChargeForwardReliable replays the forward transfer plan link by link
// through the lossy-link fault model with per-hop retries, charging the
// actual Tx/Rx scalars of every transmission attempt (retransmissions
// included) on w's counters — the Fig. 10 comm-cost metric under loss. A
// transfer that exhausts its retries stays lost; its upstream attempts
// remain charged because that energy was spent. With fm == nil the charges
// are exactly ChargeForward's, so the disabled fault layer is a strict
// no-op. It returns the aggregate delivery stats.
func ChargeForwardReliable(g *Graph, a Assignment, w *wsn.Network, fm *wsn.LinkFaultModel, rp wsn.RetryPolicy) (DeliveryStats, error) {
	plan, err := planFor(g, a, w)
	if err != nil {
		return DeliveryStats{}, err
	}
	var st DeliveryStats
	for _, tr := range plan {
		// Plan transfers are single-hop link transmissions, so SendReliable
		// resolves to one direct hop with its retry loop.
		d, err := w.SendReliable(tr.From, tr.To, tr.Scalars, fm, rp)
		if err != nil {
			return st, err
		}
		st.add(d)
	}
	return st, nil
}

// ChargeWeightSync charges the gradient-aggregation traffic a fully
// synchronized distributed training step needs for shared convolution
// kernels: every node hosting conv sites ships its kernel gradient to the
// coordinator node and receives the averaged kernel back. The local-update
// mode (the paper's "weights updated independently by each sensor node")
// avoids exactly this traffic.
func ChargeWeightSync(g *Graph, a Assignment, w *wsn.Network, coordinator int) (int, error) {
	total := 0
	for _, st := range g.Stages {
		if st.Kind != StageConv {
			continue
		}
		kernelSize := st.Conv.Weight().Size() + st.Conv.Bias().Size()
		hosts := make(map[int]bool)
		for _, sid := range st.Sites {
			hosts[a.NodeOf[sid]] = true
		}
		for n := range hosts {
			if n == coordinator {
				continue
			}
			up, err := w.Send(n, coordinator, kernelSize)
			if err != nil {
				return total, err
			}
			down, err := w.Send(coordinator, n, kernelSize)
			if err != nil {
				return total, err
			}
			total += (up + down) * kernelSize
		}
	}
	return total, nil
}

// ChargeCentralized charges the traffic of the paper's "standard CNN"
// deployment: every sensor ships its raw reading to a single sink node that
// runs the whole network. This is the baseline whose peak per-node traffic
// MicroDeep reduces to ~13% in §IV.C.
func ChargeCentralized(g *Graph, w *wsn.Network, sink int) (int, error) {
	total := 0
	for _, st := range g.Stages {
		if st.Kind != StageInput {
			continue
		}
		minP, maxP := fieldBox(w)
		for _, sid := range st.Sites {
			s := g.Sites[sid]
			src := nearestLiveNode(w, toField(s.Coord, minP, maxP))
			hops, err := w.Send(src, sink, s.Width)
			if err != nil {
				return total, err
			}
			total += hops * s.Width
		}
	}
	return total, nil
}

// CostReport summarizes per-node communication cost after charging.
type CostReport struct {
	PerNode []int
	Max     int
	Total   int
	Mean    float64
}

// Report snapshots w's counters into a CostReport.
func Report(w *wsn.Network) CostReport {
	costs := w.Costs()
	r := CostReport{PerNode: costs}
	live := 0
	for _, nd := range w.Nodes() {
		c := nd.Cost()
		if c > r.Max {
			r.Max = c
		}
		r.Total += c
		if !nd.Failed {
			live++
		}
	}
	if live > 0 {
		r.Mean = float64(r.Total) / float64(live)
	}
	return r
}
