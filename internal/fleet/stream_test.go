package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ccdem/internal/trace"
)

// randomResults draws a plausible spread of device results: savings in
// [-5, 60)%, quality in [80, 100], battery deltas in [0, 3) h, spread
// over a handful of profiles.
func randomResults(rng *rand.Rand, n int) []DeviceResult {
	profiles := []string{"messenger", "browser", "gamer", "viewer"}
	out := make([]DeviceResult, n)
	for i := range out {
		baseline := 500 + 400*rng.Float64()
		saved := -25 + 325*rng.Float64()
		out[i] = DeviceResult{
			Device:         i,
			Profile:        profiles[rng.Intn(len(profiles))],
			SessionS:       30 + 60*rng.Float64(),
			BaselineMW:     baseline,
			ManagedMW:      baseline - saved,
			SavedMW:        saved,
			SavedPct:       100 * saved / baseline,
			QualityPct:     80 + 20*rng.Float64(),
			TrueQualityPct: 80 + 20*rng.Float64(),
			BaselineHours:  6 + 3*rng.Float64(),
			ManagedHours:   6 + 6*rng.Float64(),
			ExtraHours:     3 * rng.Float64(),
		}
	}
	return out
}

// binned reproduces the accumulator's value quantization on a slice: the
// reference distributions the histogram percentiles and CDF must match
// exactly.
func binned(vs []float64, perUnit float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = math.Round(v*perUnit) / perUnit
	}
	return out
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// referenceAggregate folds results into a single Accumulator in slice
// order — the device-order reference every cohort run, which folds into
// one accumulator per worker and merges them, must reproduce byte for
// byte.
func referenceAggregate(results []DeviceResult, profiles []Profile) Aggregate {
	acc := NewAccumulator()
	for _, r := range results {
		acc.Add(r)
	}
	return acc.Aggregate(profiles)
}

// TestAccumulatorMatchesSliceReference is the streaming layer's core
// property: folding results one by one must reproduce what an independent
// slice-based implementation computes over the same population —
// percentiles and the CDF exactly (both operate on 0.1-binned values),
// means to fixed-point resolution (5e-7 per value).
func TestAccumulatorMatchesSliceReference(t *testing.T) {
	profiles := []Profile{
		{Name: "messenger"}, {Name: "browser"}, {Name: "gamer"},
		{Name: "viewer"}, {Name: "absent"},
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 1 + rng.Intn(400)
		results := randomResults(rng, n)
		agg := referenceAggregate(results, profiles)

		var savedPct, quality, trueQ, extraH []float64
		var meanBase, meanManaged, meanSaved float64
		for _, r := range results {
			savedPct = append(savedPct, r.SavedPct)
			quality = append(quality, r.QualityPct)
			trueQ = append(trueQ, r.TrueQualityPct)
			extraH = append(extraH, r.ExtraHours)
			meanBase += r.BaselineMW
			meanManaged += r.ManagedMW
			meanSaved += r.SavedMW
		}
		fn := float64(n)
		tol := 1e-6 // fixed-point rounding: ≤5e-7 per value before averaging
		checks := []struct {
			name      string
			got, want float64
		}{
			{"MeanBaselineMW", agg.MeanBaselineMW, meanBase / fn},
			{"MeanManagedMW", agg.MeanManagedMW, meanManaged / fn},
			{"MeanSavedMW", agg.MeanSavedMW, meanSaved / fn},
			{"SavedPctMean", agg.SavedPctMean, trace.Mean(savedPct)},
			{"QualityPctMean", agg.QualityPctMean, trace.Mean(binned(quality, 10))},
			{"TrueQualityPctMean", agg.TrueQualityPctMean, trace.Mean(binned(trueQ, 10))},
			{"ExtraHoursMean", agg.ExtraHoursMean, trace.Mean(extraH)},
		}
		for _, c := range checks {
			if !approxEq(c.got, c.want, tol) {
				t.Errorf("trial %d (n=%d): %s = %v, reference %v", trial, n, c.name, c.got, c.want)
			}
		}
		exact := []struct {
			name      string
			got, want float64
		}{
			{"SavedPctP50", agg.SavedPctP50, trace.Percentile(binned(savedPct, 10), 50)},
			{"SavedPctP95", agg.SavedPctP95, trace.Percentile(binned(savedPct, 10), 95)},
			{"QualityPctP5", agg.QualityPctP5, trace.Percentile(binned(quality, 10), 5)},
			{"ExtraHoursP50", agg.ExtraHoursP50, trace.Percentile(binned(extraH, 1000), 50)},
			{"ExtraHoursP95", agg.ExtraHoursP95, trace.Percentile(binned(extraH, 1000), 95)},
		}
		for _, c := range exact {
			if c.got != c.want {
				t.Errorf("trial %d (n=%d): %s = %v, reference %v (must be bit-identical)", trial, n, c.name, c.got, c.want)
			}
		}
		wantCDF := trace.CDF(binned(quality, 10))
		if len(agg.QualityCDF) != len(wantCDF) {
			t.Fatalf("trial %d: CDF has %d points, reference %d", trial, len(agg.QualityCDF), len(wantCDF))
		}
		for i, p := range agg.QualityCDF {
			if p != wantCDF[i] {
				t.Errorf("trial %d: CDF[%d] = %+v, reference %+v", trial, i, p, wantCDF[i])
			}
		}
		// Per-profile breakdown follows declaration order and averages raw
		// values; a profile with no devices yields a zero-value row.
		if len(agg.Profiles) != len(profiles) {
			t.Fatalf("trial %d: %d profile rows, want %d", trial, len(agg.Profiles), len(profiles))
		}
		for pi, p := range profiles {
			row := agg.Profiles[pi]
			if row.Profile != p.Name {
				t.Fatalf("trial %d: profile row %d is %q, want %q", trial, pi, row.Profile, p.Name)
			}
			var cnt int
			var saved, sp, q, tq, eh float64
			for _, r := range results {
				if r.Profile != p.Name {
					continue
				}
				cnt++
				saved += r.SavedMW
				sp += r.SavedPct
				q += r.QualityPct
				tq += r.TrueQualityPct
				eh += r.ExtraHours
			}
			if row.Devices != cnt {
				t.Errorf("trial %d: profile %s devices = %d, want %d", trial, p.Name, row.Devices, cnt)
			}
			if cnt == 0 {
				if row != (ProfileAggregate{Profile: p.Name}) {
					t.Errorf("trial %d: absent profile %s not zero: %+v", trial, p.Name, row)
				}
				continue
			}
			fc := float64(cnt)
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"MeanSavedMW", row.MeanSavedMW, saved / fc},
				{"SavedPctMean", row.SavedPctMean, sp / fc},
				{"QualityPctMean", row.QualityPctMean, q / fc},
				{"TrueQualityPctMean", row.TrueQualityPctMean, tq / fc},
				{"ExtraHoursMean", row.ExtraHoursMean, eh / fc},
			} {
				if !approxEq(c.got, c.want, tol) {
					t.Errorf("trial %d: profile %s %s = %v, reference %v", trial, p.Name, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestAccumulatorMergeInvariant: any partition of the population into
// shards, merged in any order, must produce the same bytes as folding the
// whole population into one accumulator — the property that makes
// streamed worker sharding exact.
func TestAccumulatorMergeInvariant(t *testing.T) {
	profiles := []Profile{{Name: "messenger"}, {Name: "browser"}, {Name: "gamer"}, {Name: "viewer"}}
	rng := rand.New(rand.NewSource(42))
	results := randomResults(rng, 300)

	one := NewAccumulator()
	for _, r := range results {
		one.Add(r)
	}
	want := fmt.Sprintf("%+v", one.Aggregate(profiles))

	for trial := 0; trial < 10; trial++ {
		nShards := 1 + rng.Intn(8)
		shards := make([]*Accumulator, nShards)
		for i := range shards {
			shards[i] = NewAccumulator()
		}
		for _, r := range results {
			shards[rng.Intn(nShards)].Add(r)
		}
		merged := NewAccumulator()
		for _, i := range rng.Perm(nShards) {
			merged.Merge(shards[i])
		}
		if merged.Devices() != len(results) {
			t.Fatalf("trial %d: merged %d devices, want %d", trial, merged.Devices(), len(results))
		}
		if got := fmt.Sprintf("%+v", merged.Aggregate(profiles)); got != want {
			t.Errorf("trial %d (%d shards): merged aggregate differs:\n got %s\nwant %s", trial, nShards, got, want)
		}
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	agg := NewAccumulator().Aggregate([]Profile{{Name: "p"}})
	if agg.Devices != 0 || agg.QualityCDF != nil || len(agg.Profiles) != 0 {
		t.Errorf("empty accumulator aggregate = %+v, want zero", agg)
	}
}

// TestStreamedCohortMatchesRetained pins the one accumulation path: at
// every worker count and batch size, with and without device reuse in
// play, a run that retains rows and a streamed run both deliver every
// device to the sink and both produce the aggregate of a single
// accumulator fed the retained rows in device order, byte for byte.
func TestStreamedCohortMatchesRetained(t *testing.T) {
	cohort := testCohort(6)
	base, err := cohort.Run(context.Background(), Pool{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Devices) != cohort.Devices {
		t.Fatalf("retained %d device rows, want %d", len(base.Devices), cohort.Devices)
	}
	reference := Result{Aggregate: referenceAggregate(base.Devices, DefaultProfiles())}
	var want bytes.Buffer
	if err := reference.WriteJSON(&want, false); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workers, batch int
	}{{1, 0}, {2, 0}, {8, 0}, {8, 4}, {3, 64}} {
		for _, stream := range []bool{false, true} {
			c := cohort
			c.Stream = stream
			var rows int
			c.Sink = func(d DeviceResult) { rows++ }
			r, err := c.Run(context.Background(), Pool{Workers: tc.workers, Batch: tc.batch})
			if err != nil {
				t.Fatalf("workers=%d batch=%d stream=%v: %v", tc.workers, tc.batch, stream, err)
			}
			if rows != cohort.Devices {
				t.Errorf("workers=%d stream=%v: sink saw %d rows, want %d", tc.workers, stream, rows, cohort.Devices)
			}
			if stream && r.Devices != nil {
				t.Errorf("workers=%d: streamed run retained %d device rows", tc.workers, len(r.Devices))
			}
			if !stream && !reflect.DeepEqual(r.Devices, base.Devices) {
				t.Errorf("workers=%d batch=%d: retained rows differ from the 1-worker run", tc.workers, tc.batch)
			}
			var got bytes.Buffer
			if err := r.WriteJSON(&got, false); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("workers=%d batch=%d stream=%v: aggregate differs from the device-order fold:\n--- reference ---\n%s\n--- got ---\n%s",
					tc.workers, tc.batch, stream, want.String(), got.String())
			}
		}
	}
}
