package app_test

import (
	"context"
	"testing"

	"ccdem/internal/app"
	"ccdem/internal/fleet"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
)

// TestMemoCountsIndependentOfWorkers: a cohort run against a cold state
// memo sums the same memo hits and misses at 1 and at 4 workers. Under
// the stripe singleflight a feed state that d devices paint takes
// min(d, 2) misses, whichever devices paint it first.
func TestMemoCountsIndependentOfWorkers(t *testing.T) {
	counts := func(workers int) (hits, misses uint64) {
		app.ResetStateMemo()
		c := fleet.Cohort{Devices: 16, Seed: 11, Session: 10 * sim.Second, Obs: obs.NewCollector(0)}
		if _, err := c.Run(context.Background(), fleet.Pool{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		reg, err := c.Obs.MergedMetrics()
		if err != nil {
			t.Fatal(err)
		}
		return reg.Counter("app_memo_hits_total").Value(), reg.Counter("app_memo_misses_total").Value()
	}
	h1, m1 := counts(1)
	h4, m4 := counts(4)
	if h1 != h4 || m1 != m4 {
		t.Errorf("memo hits/misses: %d/%d at 1 worker, %d/%d at 4", h1, m1, h4, m4)
	}
	if h1 == 0 || m1 == 0 {
		t.Errorf("memo hits/misses %d/%d: the cohort does not reuse feed states", h1, m1)
	}
	t.Logf("memo hits/misses %d/%d", h1, m1)
}
