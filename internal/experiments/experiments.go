// Package experiments regenerates every measured figure and table of the
// paper's evaluation (§4) on the simulated device. Each FigN function
// returns a structured result whose String method prints the same rows or
// series the paper plots; DESIGN.md §5 maps each experiment to the modules
// it exercises and EXPERIMENTS.md records paper-vs-measured outcomes.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"text/tabwriter"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/fault"
	"ccdem/internal/fleet"
	"ccdem/internal/input"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
)

// Options control experiment scale. The paper runs each application for
// about three minutes; shorter durations keep unit tests fast while
// preserving every qualitative shape.
type Options struct {
	// Duration of each run. Default 180 s (the paper's ≈3 minutes).
	Duration sim.Time
	// Seed drives the Monkey script generator. Identical seeds reproduce
	// identical runs bit-for-bit.
	Seed int64
	// MeterSamples sets the governor's comparison grid. Default 9216.
	MeterSamples int
	// Parallelism bounds the number of runs executed concurrently in
	// campaign experiments. Every run owns a private simulation engine,
	// so runs are independent and results remain bit-identical regardless
	// of this value. Default GOMAXPROCS.
	Parallelism int
	// Repeats averages each (app, mode) measurement over this many runs
	// with distinct Monkey seeds — the paper repeats its measurements and
	// reports means with deviations. Default 1 (single run per cell).
	Repeats int
	// Obs, when non-nil, collects observability from every measurement
	// run: one collector track per (app, mode, seed) cell, holding that
	// run's decision events and metrics. Nil (the default) disables
	// observability at zero cost.
	Obs *obs.Collector
	// FaultPlan overrides the chaos experiment's fault mix (nil selects
	// fault.DefaultPlan). Only Chaos consults it.
	FaultPlan *fault.Plan
}

func (o *Options) applyDefaults() {
	if o.Duration == 0 {
		o.Duration = 180 * sim.Second
	}
	if o.MeterSamples == 0 {
		o.MeterSamples = 9216
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.Repeats < 1 {
		o.Repeats = 1
	}
}

// runAppRepeated measures one (app, mode) cell Repeats times with distinct
// seeds and returns the per-field mean of the stats.
func runAppRepeated(o Options, p app.Params, mode ccdem.GovernorMode) (ccdem.Stats, error) {
	if o.Repeats <= 1 {
		st, _, err := runApp(o, p, mode)
		return st, err
	}
	var acc []ccdem.Stats
	for r := 0; r < o.Repeats; r++ {
		or := o
		or.Seed = o.Seed + int64(r)*7919 // distinct scripts per repeat
		st, _, err := runApp(or, p, mode)
		if err != nil {
			return ccdem.Stats{}, err
		}
		acc = append(acc, st)
	}
	return meanStats(acc), nil
}

// meanStats averages the continuous fields of a set of runs (counters are
// averaged too, rounding down); Mode and Duration come from the first run.
func meanStats(ss []ccdem.Stats) ccdem.Stats {
	if len(ss) == 0 {
		return ccdem.Stats{}
	}
	out := ss[0]
	n := float64(len(ss))
	var power, powerStd, energy, frame, content, redundant, intended, quality, dropped, refresh float64
	var switches, boosts uint64
	for _, s := range ss {
		power += s.MeanPowerMW
		powerStd += s.PowerStdMW
		energy += s.EnergyMJ
		frame += s.FrameRate
		content += s.ContentRate
		redundant += s.RedundantRate
		intended += s.IntendedRate
		quality += s.DisplayQuality
		dropped += s.DroppedFPS
		refresh += s.MeanRefreshHz
		switches += s.RefreshSwitches
		boosts += s.BoostCount
	}
	out.MeanPowerMW = power / n
	out.PowerStdMW = powerStd / n
	out.EnergyMJ = energy / n
	out.FrameRate = frame / n
	out.ContentRate = content / n
	out.RedundantRate = redundant / n
	out.IntendedRate = intended / n
	out.DisplayQuality = quality / n
	out.DroppedFPS = dropped / n
	out.MeanRefreshHz = refresh / n
	out.RefreshSwitches = switches / uint64(len(ss))
	out.BoostCount = boosts / uint64(len(ss))
	out.Breakdown = nil // per-component energy is not averaged
	return out
}

// forEachApp runs fn once per catalog application through a fleet.Pool,
// up to o.Parallelism at a time. fn must be self-contained (each
// invocation builds its own device and engine). Every application runs
// even when some fail; all failures are returned together in catalog
// order (errors.Join), each wrapped with its application name.
func forEachApp(o Options, fn func(p app.Params) error) error {
	cat := app.Catalog()
	pool := fleet.Pool{Workers: o.Parallelism, ContinueOnError: true}
	return pool.Run(context.Background(), len(cat), func(_ context.Context, i int) error {
		if err := fn(cat[i]); err != nil {
			return fmt.Errorf("%s: %w", cat[i].Name, err)
		}
		return nil
	})
}

// screen dimensions of the reproduction's Galaxy S3 target.
const (
	screenW = 720
	screenH = 1280
)

// appScript builds the deterministic Monkey script used for one app. The
// app name is folded into the seed so each app gets a distinct but
// reproducible interaction sequence, while paired runs (baseline vs
// governed) of the same app replay the identical script — the paper's
// "repeating the same script generated by Monkey".
func appScript(o Options, appName string, length sim.Time) (input.Script, error) {
	seed := o.Seed
	for _, c := range []byte(appName) {
		seed = seed*131 + int64(c)
	}
	mk, err := input.NewMonkey(seed, input.DefaultMonkeyConfig())
	if err != nil {
		return input.Script{}, err
	}
	return mk.Script(length, screenW, screenH), nil
}

// runApp executes one (app, mode) measurement run and returns its stats
// and traces.
func runApp(o Options, p app.Params, mode ccdem.GovernorMode) (ccdem.Stats, ccdem.Traces, error) {
	rec, reg := o.Obs.Device(fmt.Sprintf("%s [%s] seed=%d", p.Name, mode, o.Seed))
	dev, err := ccdem.NewDevice(ccdem.Config{
		Width: screenW, Height: screenH,
		Governor:     mode,
		MeterSamples: o.MeterSamples,
		Recorder:     rec,
		Metrics:      reg,
	})
	if err != nil {
		return ccdem.Stats{}, ccdem.Traces{}, err
	}
	if _, err := dev.InstallApp(p); err != nil {
		return ccdem.Stats{}, ccdem.Traces{}, err
	}
	sc, err := appScript(o, p.Name, o.Duration)
	if err != nil {
		return ccdem.Stats{}, ccdem.Traces{}, err
	}
	dev.PlayScript(sc)
	dev.Run(o.Duration)
	dev.FinishObs()
	return dev.Stats(), dev.Traces(), nil
}

// mustApp fetches a catalog entry or errors.
func catalogApp(name string) (app.Params, error) {
	p, ok := app.ByName(name)
	if !ok {
		return app.Params{}, fmt.Errorf("experiments: app %q not in catalog", name)
	}
	return p, nil
}

// table is a small helper for aligned text output.
func table(write func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	write(w)
	w.Flush()
	return sb.String()
}
