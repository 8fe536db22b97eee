package schedule

import (
	"testing"
	"testing/quick"

	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

// TestPropertyRandomPlansValidate: random synthetic transfer plans over
// random grids always produce schedules that match refBuild and pass
// Validate, for any channel count and interference range.
func TestPropertyRandomPlansValidate(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
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
			to, ok := pickNeighbor(w, from, stream.Intn(w.NumNodes()))
			if !ok {
				continue
			}
			plan = append(plan, microdeep.Transfer{
				From:    from,
				To:      to,
				Scalars: 1 + stream.Intn(6),
				Stage:   1 + stream.Intn(3),
			})
		}
		opts := Options{Channels: 1 + int(chSel%8), InterferenceHops: int(ihSel % 3)}
		checkMatchesRef(t, plan, w, opts)
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
