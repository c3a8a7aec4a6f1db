// Benchmarks regenerating every measured figure and table of the paper's
// evaluation. Each benchmark executes the corresponding experiment on the
// simulated device (virtual durations are shortened relative to the
// paper's ≈3-minute runs; use cmd/ccdem for full-length campaigns) and
// reports the experiment's headline quantities as benchmark metrics, so
// `go test -bench=.` reproduces the paper's result shapes in one sweep.
package ccdem_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"runtime"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/experiments"
	"ccdem/internal/fleet"
	"ccdem/internal/input"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
	"ccdem/internal/trace"
)

// benchOpts shortens runs to keep the full bench sweep around a minute.
func benchOpts() experiments.Options {
	return experiments.Options{Duration: 20 * sim.Second, Seed: 1}
}

// BenchmarkFig2FrameRateTraces regenerates Figure 2: baseline frame-rate
// traces of Facebook vs Jelly Splash against the fixed 60 Hz refresh.
func BenchmarkFig2FrameRateTraces(b *testing.B) {
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, tr := range r.Traces {
		switch tr.App {
		case "Facebook":
			b.ReportMetric(tr.FrameRate.Mean(), "facebook-fps")
		case "Jelly Splash":
			b.ReportMetric(tr.FrameRate.Mean(), "jellysplash-fps")
		}
	}
}

// BenchmarkFig3Redundancy regenerates Figure 3: meaningful vs redundant
// frame rates across the 30-app catalog on the unmanaged baseline.
func BenchmarkFig3Redundancy(b *testing.B) {
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.ShareAboveRedundant(app.Game, 20), "games-%>20redundant")
	var redundant []float64
	for _, row := range r.Rows {
		redundant = append(redundant, row.RedundantFPS)
	}
	b.ReportMetric(trace.Mean(redundant), "mean-redundant-fps")
}

// BenchmarkFig6MeterAccuracy regenerates Figure 6: metering error and
// device-scale comparison cost per grid size on the dot wallpaper.
func BenchmarkFig6MeterAccuracy(b *testing.B) {
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, g := range r.Grids {
		b.ReportMetric(g.ErrorRate, "err%-"+g.Label)
	}
}

// BenchmarkFig7ControlTraces regenerates Figure 7: content/refresh traces
// under section control alone and with touch boosting.
func BenchmarkFig7ControlTraces(b *testing.B) {
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, tr := range r.Traces {
		if tr.App == "Facebook" {
			switch tr.Mode {
			case ccdem.GovernorSection:
				b.ReportMetric(tr.DroppedFPS, "fb-section-dropped-fps")
			case ccdem.GovernorSectionBoost:
				b.ReportMetric(tr.DroppedFPS, "fb-boost-dropped-fps")
			}
		}
	}
}

// BenchmarkFig8PowerTraces regenerates Figure 8: power saved over time for
// Facebook and Jelly Splash against the baseline on identical scripts.
func BenchmarkFig8PowerTraces(b *testing.B) {
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, tr := range r.Traces {
		if tr.Mode != ccdem.GovernorSection {
			continue
		}
		switch tr.App {
		case "Facebook":
			b.ReportMetric(tr.MeanSavedMW, "fb-saved-mW")
		case "Jelly Splash":
			b.ReportMetric(tr.MeanSavedMW, "js-saved-mW")
		}
	}
}

// The 30-app campaign behind Figures 9–11 and Table 1 is expensive; it
// runs once and is shared by the four benchmarks that view it. The first
// benchmark to run pays the campaign cost inside its timed region.
var (
	suiteOnce sync.Once
	suiteRes  *experiments.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	for i := 0; i < b.N; i++ {
		suiteOnce.Do(func() {
			suiteRes, suiteErr = experiments.RunSuite(benchOpts())
		})
	}
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteRes
}

// BenchmarkFig9PowerSave regenerates Figure 9: per-app power saving.
func BenchmarkFig9PowerSave(b *testing.B) {
	s := benchSuite(b)
	var general, games []float64
	for _, r := range s.Category(app.General) {
		general = append(general, r.SavedMW(ccdem.GovernorSection))
	}
	for _, r := range s.Category(app.Game) {
		games = append(games, r.SavedMW(ccdem.GovernorSection))
	}
	b.ReportMetric(trace.Mean(general), "general-saved-mW")
	b.ReportMetric(trace.Mean(games), "games-saved-mW")
}

// BenchmarkFig10ContentRate regenerates Figure 10: estimated vs actual
// content rates per app.
func BenchmarkFig10ContentRate(b *testing.B) {
	s := benchSuite(b)
	var sectDrop, boostDrop []float64
	for _, r := range s.Runs {
		sectDrop = append(sectDrop, r.Section.DroppedFPS)
		boostDrop = append(boostDrop, r.Boost.DroppedFPS)
	}
	b.ReportMetric(trace.Percentile(sectDrop, 80), "section-dropped-p80-fps")
	b.ReportMetric(trace.Percentile(boostDrop, 80), "boost-dropped-p80-fps")
}

// BenchmarkFig11DisplayQuality regenerates Figure 11: display quality per
// app.
func BenchmarkFig11DisplayQuality(b *testing.B) {
	s := benchSuite(b)
	var sect, boost []float64
	for _, r := range s.Runs {
		sect = append(sect, 100*r.Section.DisplayQuality)
		boost = append(boost, 100*r.Boost.DisplayQuality)
	}
	b.ReportMetric(trace.Percentile(sect, 20), "section-quality-p20-%")
	b.ReportMetric(trace.Percentile(boost, 20), "boost-quality-p20-%")
}

// BenchmarkTable1Summary regenerates Table 1: category × method summary of
// saved power and display quality.
func BenchmarkTable1Summary(b *testing.B) {
	s := benchSuite(b)
	for _, row := range s.Table1() {
		label := row.Cat.String()
		if row.Mode == ccdem.GovernorSectionBoost {
			label += "+boost"
		}
		b.ReportMetric(row.SavedPct, label+"-saved-%")
		b.ReportMetric(row.QualityPct, label+"-quality-%")
	}
}

// BenchmarkCompareE3 runs the extension experiment pitting the paper's
// refresh-rate control against E3-style frame-rate adaptation (related
// work [16]) on two representative apps; the gap is the
// refresh-proportional panel power only refresh control can reclaim.
func BenchmarkCompareE3(b *testing.B) {
	p, _ := app.ByName("Jelly Splash")
	mk, err := input.NewMonkey(1, input.DefaultMonkeyConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc := mk.Script(20*sim.Second, 720, 1280)
	run := func(mode ccdem.GovernorMode) ccdem.Stats {
		dev, err := ccdem.NewDevice(ccdem.Config{Governor: mode})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.InstallApp(p); err != nil {
			b.Fatal(err)
		}
		dev.PlayScript(sc)
		dev.Run(20 * sim.Second)
		return dev.Stats()
	}
	var base, e3, full ccdem.Stats
	for i := 0; i < b.N; i++ {
		base = run(ccdem.GovernorOff)
		e3 = run(ccdem.GovernorE3)
		full = run(ccdem.GovernorSectionBoost)
	}
	b.ReportMetric(base.MeanPowerMW-e3.MeanPowerMW, "e3-saved-mW")
	b.ReportMetric(base.MeanPowerMW-full.MeanPowerMW, "ccdem-saved-mW")
	b.ReportMetric(100*e3.DisplayQuality, "e3-quality-%")
	b.ReportMetric(100*full.DisplayQuality, "ccdem-quality-%")
}

// BenchmarkFleetScaling measures the fleet engine's multi-core speedup: a
// fixed 30-device cohort at 1/2/4/8 workers. Results are bit-identical at
// every width (per-device seeding is sharded from the fleet seed), so the
// only thing that changes is wall-clock time; on a single-core host all
// widths degenerate to the sequential time.
func BenchmarkFleetScaling(b *testing.B) {
	cohort := fleet.Cohort{
		Devices: 30,
		Seed:    1,
		Session: 10 * sim.Second,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var agg fleet.Aggregate
			for i := 0; i < b.N; i++ {
				r, err := cohort.Run(context.Background(), fleet.Pool{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				agg = r.Aggregate
			}
			b.ReportMetric(agg.MeanSavedMW, "fleet-saved-mW")
			b.ReportMetric(agg.QualityPctMean, "fleet-quality-%")
			b.ReportMetric(float64(cohort.Devices)*cohort.Session.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "device-s/s")
		})
	}
}

// fleetBenchCohort is the light-interaction streamed cohort pinned by the
// fleet throughput and memory gates: sparse touches on one app keep each
// device's session cheap, so the measurement is dominated by per-device
// setup cost — exactly what device reuse, streaming aggregation and
// batched scheduling eliminate — rather than by frame simulation.
func fleetBenchCohort(devices int) fleet.Cohort {
	return fleet.Cohort{
		Devices: devices,
		Seed:    99,
		Session: 2 * sim.Second,
		Stream:  true,
		Profiles: []fleet.Profile{{
			Name: "idler", Weight: 1, TouchIntensity: 0.2,
			Apps: []fleet.AppShare{{Name: "Facebook", Weight: 1}},
		}},
	}
}

// BenchmarkFleetThroughput gates cohort execution speed: devices
// simulated per wall second (a power-only baseline, which draws and
// meters no pixels, plus the fully simulated managed segment of each app)
// on the streamed, device-reusing, batch-scheduled path.
func BenchmarkFleetThroughput(b *testing.B) {
	cohort := fleetBenchCohort(32)
	pool := fleet.Pool{Workers: 8, Batch: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cohort.Run(context.Background(), pool); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cohort.Devices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
}

// BenchmarkCohortMemory gates the streamed campaign's memory footprint:
// B/op must stay dominated by the per-worker recycled devices and the
// per-device scripts, not per-device result retention or reconstruction.
// The per-device byte metric makes the O(workers) claim visible — it must
// not grow with the cohort (compare devices=64 vs devices=256). The sub-
// benchmark names use '=' rather than a trailing -N so the perfgate parser's
// GOMAXPROCS-suffix stripping cannot eat the device count.
func BenchmarkCohortMemory(b *testing.B) {
	for _, devices := range []int{64, 256} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			cohort := fleetBenchCohort(devices)
			pool := fleet.Pool{Workers: 2, Batch: 16}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cohort.Run(context.Background(), pool); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(devices), "B/device")
		})
	}
}

// BenchmarkObsOverhead quantifies the observability layer's cost on the
// same governed-device run, disabled (nil sinks — the default) vs enabled
// (recorder + metrics registry attached). The disabled variant is the
// overhead contract: it must match the plain simulation, since disabled
// instrumentation is a nil check per hook.
func BenchmarkObsOverhead(b *testing.B) {
	p, _ := app.ByName("Jelly Splash")
	mk, err := input.NewMonkey(1, input.DefaultMonkeyConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc := mk.Script(10*sim.Second, 720, 1280)
	run := func(b *testing.B, rec *obs.Recorder, reg *obs.Registry) {
		dev, err := ccdem.NewDevice(ccdem.Config{
			Governor: ccdem.GovernorSectionBoost,
			Recorder: rec,
			Metrics:  reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.InstallApp(p); err != nil {
			b.Fatal(err)
		}
		dev.PlayScript(sc)
		dev.Run(10 * sim.Second)
		dev.FinishObs()
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil, nil)
		}
		b.ReportMetric(10*float64(b.N)/b.Elapsed().Seconds(), "virtual-s/s")
	})
	b.Run("enabled", func(b *testing.B) {
		var events uint64
		for i := 0; i < b.N; i++ {
			rec := obs.NewRecorder(0)
			run(b, rec, obs.NewRegistry())
			events = rec.Total()
		}
		b.ReportMetric(10*float64(b.N)/b.Elapsed().Seconds(), "virtual-s/s")
		b.ReportMetric(float64(events), "events/run")
	})
}

// BenchmarkDeviceSimulation measures raw simulation throughput: virtual
// seconds simulated per wall second for a full governed device running a
// 60 fps game.
func BenchmarkDeviceSimulation(b *testing.B) {
	p, _ := app.ByName("Jelly Splash")
	mk, err := input.NewMonkey(1, input.DefaultMonkeyConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc := mk.Script(10*sim.Second, 720, 1280)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := ccdem.NewDevice(ccdem.Config{Governor: ccdem.GovernorSectionBoost})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.InstallApp(p); err != nil {
			b.Fatal(err)
		}
		dev.PlayScript(sc)
		dev.Run(10 * sim.Second)
	}
	b.ReportMetric(10*float64(b.N)/b.Elapsed().Seconds(), "virtual-s/s")
}

// BenchmarkDeviceSteadyState measures the per-frame hot path with setup
// excluded: one governed device built outside the timed region, run in
// one-virtual-second increments. Trace and power sampling are disabled
// (negative intervals) so the loop exercises exactly the steady-state frame
// pipeline — render, compose, meter, govern — which must not allocate.
func BenchmarkDeviceSteadyState(b *testing.B) {
	p, _ := app.ByName("Jelly Splash")
	dev, err := ccdem.NewDevice(ccdem.Config{
		Governor:            ccdem.GovernorSectionBoost,
		TraceInterval:       -1,
		PowerSampleInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dev.InstallApp(p); err != nil {
		b.Fatal(err)
	}
	dev.Run(2 * sim.Second) // warm up pools and ring buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Run(sim.Second)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "virtual-s/s")
}
