// Package schedule generates collision-free TDMA transmission schedules
// for the data-collection traffic of a zero-energy IoT device network —
// the §III.B/§V design-support challenge the paper poses: given the device
// network and the required information-collection pattern, "automatically
// generate the necessary information collection algorithm", including
// multi-channel operation and per-slot timing a designer would otherwise
// specify by hand.
//
// The input is the link-level transfer plan of a distributed computation
// (microdeep.Plan, or any []Transfer-shaped workload); the output assigns
// every transfer a (slot, channel) such that
//
//   - half-duplex: a node transmits or receives at most once per slot
//     (regardless of channel — one radio per node);
//   - interference: two same-channel, same-slot transmissions must not
//     collide at either receiver (the sender of one must not be within
//     interference range of the other's receiver);
//   - causality: a transfer of stage s is scheduled strictly after every
//     transfer of stages < s it depends on, by scheduling stages in
//     separate slot phases.
//
// More channels shorten the schedule; the Validate method re-checks every
// constraint so property tests can assert correctness independently of the
// construction.
package schedule

import (
	"fmt"

	"zeiot/internal/microdeep"
	"zeiot/internal/wsn"
)

// Entry is one scheduled transmission.
type Entry struct {
	Transfer microdeep.Transfer
	Slot     int
	Channel  int
}

// Schedule is a complete TDMA plan for one collection round.
type Schedule struct {
	Entries  []Entry
	Slots    int
	Channels int
	// StageEnd[s] is the first slot after stage s's transfers.
	StageEnd map[int]int
}

// Options configures the generator.
type Options struct {
	// Channels is the number of orthogonal radio channels (≥ 1).
	Channels int
	// InterferenceHops is the carrier-sense range in hops: a transmission
	// collides with a same-channel reception when the interfering sender
	// is within this many hops of the receiver. 1 models standard
	// one-cell reuse.
	InterferenceHops int
}

// Build schedules the transfer plan over w. Transfers must reference valid
// adjacent nodes (as microdeep.Plan produces).
func Build(plan []microdeep.Transfer, w *wsn.Network, opts Options) (*Schedule, error) {
	if opts.Channels < 1 {
		return nil, fmt.Errorf("schedule: need at least one channel, got %d", opts.Channels)
	}
	if opts.InterferenceHops < 0 {
		return nil, fmt.Errorf("schedule: negative interference range")
	}
	s := &Schedule{Channels: opts.Channels, StageEnd: make(map[int]int)}
	// Group transfers by stage; stages run in disjoint slot phases so all
	// inputs of a stage are delivered before its outputs ship.
	stages := make(map[int][]microdeep.Transfer)
	maxStage := 0
	for _, tr := range plan {
		if tr.From == tr.To {
			return nil, fmt.Errorf("schedule: self transfer at node %d", tr.From)
		}
		if !w.Linked(tr.From, tr.To) {
			return nil, fmt.Errorf("schedule: transfer %d->%d is not a link", tr.From, tr.To)
		}
		stages[tr.Stage] = append(stages[tr.Stage], tr)
		if tr.Stage > maxStage {
			maxStage = tr.Stage
		}
	}
	words := (w.NumNodes() + 63) / 64
	base := 0
	for stage := 0; stage <= maxStage; stage++ {
		transfers := stages[stage]
		if len(transfers) == 0 {
			continue
		}
		// busy[slot*words:] is the slot's bitset of nodes that send or
		// receive in it, on any channel (one radio per node);
		// use[slot*Channels+ch] lists the transmissions placed on channel
		// ch of the slot. Both cover this stage's slots only.
		var busy []uint64
		var use [][]placed
		slots := 0
		for _, tr := range transfers {
			// First fit: the first slot where neither endpoint is busy
			// and some channel is free of collisions, then the first such
			// channel.
			for slot := 0; ; slot++ {
				if slot == slots {
					busy = append(busy, make([]uint64, words)...)
					use = append(use, make([][]placed, opts.Channels)...)
					slots++
				}
				b := busy[slot*words : (slot+1)*words]
				if b[tr.From/64]&(1<<(tr.From%64)) != 0 || b[tr.To/64]&(1<<(tr.To%64)) != 0 {
					continue
				}
				chans := use[slot*opts.Channels : (slot+1)*opts.Channels]
				ch := 0
				for ch < opts.Channels && collides(w, chans[ch], tr, opts.InterferenceHops) {
					ch++
				}
				if ch == opts.Channels {
					continue
				}
				b[tr.From/64] |= 1 << (tr.From % 64)
				b[tr.To/64] |= 1 << (tr.To % 64)
				chans[ch] = append(chans[ch], placed{tr.From, tr.To})
				s.Entries = append(s.Entries, Entry{Transfer: tr, Slot: base + slot, Channel: ch})
				break
			}
		}
		base += slots
		s.StageEnd[stage] = base
	}
	s.Slots = base
	return s, nil
}

// placed is one transmission already assigned to a (slot, channel).
type placed struct {
	from, to int
}

func collides(w *wsn.Network, existing []placed, tr microdeep.Transfer, ihops int) bool {
	for _, p := range existing {
		// New sender too close to an existing receiver, or existing
		// sender too close to the new receiver.
		if within(w, tr.From, p.to, ihops) || within(w, p.from, tr.To, ihops) {
			return true
		}
	}
	return false
}

func within(w *wsn.Network, a, b, hops int) bool {
	h := w.Hops(a, b)
	return h >= 0 && h <= hops
}

// Validate re-checks every constraint of the schedule against the network
// and the original plan; it returns the first violation found.
func (s *Schedule) Validate(plan []microdeep.Transfer, w *wsn.Network, opts Options) error {
	if len(s.Entries) != len(plan) {
		return fmt.Errorf("schedule: %d entries for %d transfers", len(s.Entries), len(plan))
	}
	// Every transfer scheduled exactly once (multiset match by value).
	counts := make(map[microdeep.Transfer]int)
	for _, tr := range plan {
		counts[tr]++
	}
	for _, e := range s.Entries {
		counts[e.Transfer]--
		if counts[e.Transfer] < 0 {
			return fmt.Errorf("schedule: transfer %+v scheduled more often than planned", e.Transfer)
		}
		if e.Channel < 0 || e.Channel >= s.Channels {
			return fmt.Errorf("schedule: entry uses channel %d of %d", e.Channel, s.Channels)
		}
		if e.Slot < 0 || e.Slot >= s.Slots {
			return fmt.Errorf("schedule: entry uses slot %d of %d", e.Slot, s.Slots)
		}
	}
	for tr, c := range counts {
		if c != 0 {
			return fmt.Errorf("schedule: transfer %+v missing from schedule", tr)
		}
	}
	// Per-slot constraints.
	bySlot := make(map[int][]Entry)
	for _, e := range s.Entries {
		bySlot[e.Slot] = append(bySlot[e.Slot], e)
	}
	for slot, entries := range bySlot {
		for i := 0; i < len(entries); i++ {
			for j := i + 1; j < len(entries); j++ {
				a, b := entries[i], entries[j]
				nodes := map[int]bool{a.Transfer.From: true, a.Transfer.To: true}
				if nodes[b.Transfer.From] || nodes[b.Transfer.To] {
					return fmt.Errorf("schedule: slot %d violates half-duplex (%+v vs %+v)", slot, a.Transfer, b.Transfer)
				}
				if a.Channel != b.Channel {
					continue
				}
				if within(w, a.Transfer.From, b.Transfer.To, opts.InterferenceHops) ||
					within(w, b.Transfer.From, a.Transfer.To, opts.InterferenceHops) {
					return fmt.Errorf("schedule: slot %d channel %d interference (%+v vs %+v)", slot, a.Channel, a.Transfer, b.Transfer)
				}
			}
		}
	}
	// Stage causality: all entries of stage s precede entries of stage t>s.
	maxEnd := -1
	lastStage := -1
	stageSlots := make(map[int][2]int) // stage -> [minSlot, maxSlot]
	for _, e := range s.Entries {
		st := e.Transfer.Stage
		mm, ok := stageSlots[st]
		if !ok {
			stageSlots[st] = [2]int{e.Slot, e.Slot}
			continue
		}
		if e.Slot < mm[0] {
			mm[0] = e.Slot
		}
		if e.Slot > mm[1] {
			mm[1] = e.Slot
		}
		stageSlots[st] = mm
	}
	for st := 0; st <= maxStageOf(stageSlots); st++ {
		mm, ok := stageSlots[st]
		if !ok {
			continue
		}
		if mm[0] <= maxEnd {
			return fmt.Errorf("schedule: stage %d starts at slot %d before stage %d finished at %d", st, mm[0], lastStage, maxEnd)
		}
		maxEnd = mm[1]
		lastStage = st
	}
	return nil
}

func maxStageOf(m map[int][2]int) int {
	maxS := 0
	for s := range m {
		if s > maxS {
			maxS = s
		}
	}
	return maxS
}

// CollectionReport summarizes whether a required collection cycle is
// feasible under the schedule.
type CollectionReport struct {
	Slots        int
	SlotsPerSec  float64
	RoundSec     float64
	MaxRateHz    float64
	CycleOK      bool
	RequiredHz   float64
	UtilizationP float64 // fraction of the cycle the schedule occupies
}

// Feasibility reports whether the schedule can sustain the required
// collection rate (samples per second) given the slot duration.
func (s *Schedule) Feasibility(slotSec, requiredHz float64) CollectionReport {
	round := float64(s.Slots) * slotSec
	r := CollectionReport{
		Slots:       s.Slots,
		SlotsPerSec: 1 / slotSec,
		RoundSec:    round,
		RequiredHz:  requiredHz,
	}
	if round > 0 {
		r.MaxRateHz = 1 / round
		r.UtilizationP = requiredHz * round
	} else {
		r.MaxRateHz = 0
		if s.Slots == 0 {
			r.MaxRateHz = 1 / slotSec // nothing to send; bounded by slotting only
		}
	}
	r.CycleOK = requiredHz <= r.MaxRateHz || s.Slots == 0
	return r
}
