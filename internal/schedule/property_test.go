package schedule

import (
	"testing"
	"testing/quick"

	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// TestPropertyRandomPlansValidate: random synthetic transfer plans over
// random grids always produce schedules that pass Validate, for any channel
// count and interference range.
func TestPropertyRandomPlansValidate(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(gridSel, planSeed, chSel, ihSel uint8) bool {
		rows := 2 + int(gridSel%4)
		cols := 2 + int(gridSel/4%4)
		w := wsn.NewGrid(rows, cols, 1)
		stream := rng.New(uint64(planSeed) + 1)
		// Random plan: transfers over random links across 1-3 stages.
		var plan []microdeep.Transfer
		n := 5 + stream.Intn(40)
		for i := 0; i < n; i++ {
			from := stream.Intn(w.NumNodes())
			var neighbors []int
			for j := range w.NumNodes() {
				if w.Linked(from, j) {
					neighbors = append(neighbors, j)
				}
			}
			if len(neighbors) == 0 {
				continue
			}
			to := neighbors[stream.Intn(len(neighbors))]
			plan = append(plan, microdeep.Transfer{
				From:    from,
				To:      to,
				Scalars: 1 + stream.Intn(6),
				Stage:   1 + stream.Intn(3),
			})
		}
		opts := Options{Channels: 1 + int(chSel%4), InterferenceHops: int(ihSel % 3)}
		s, err := Build(plan, w, opts)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		if err := s.Validate(plan, w, opts); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
