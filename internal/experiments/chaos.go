package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"text/tabwriter"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/core"
	"ccdem/internal/fault"
	"ccdem/internal/trace"
)

// ChaosRow is one application's paired chaos measurement: a clean
// baseline, plus the full system (section+boost) run twice under the
// identical fault stream — once trusting its inputs (the paper's
// governor) and once with fail-safe hardening.
type ChaosRow struct {
	App string
	Cat app.Category

	Baseline   ccdem.Stats // GovernorOff, no faults
	Unhardened ccdem.Stats // section+boost, faults injected
	Hardened   ccdem.Stats // section+boost, faults + watchdog hardening
}

// ChaosResult is the chaos experiment: evidence that the hardened
// governor degrades gracefully — holding display quality at the paper's
// ≥95% bar by pinning maximum refresh when its sensors or actuators lie —
// while the trusting governor visibly collapses under the same faults.
// Quality here is TrueQuality (displayed/intended content), since a
// faulted meter corrupts the meter-based metric itself.
type ChaosResult struct {
	Opts Options
	Plan fault.Plan
	Rows []ChaosRow
}

// Chaos runs the chaos campaign over the whole catalog. Each app replays
// the identical Monkey script three times (baseline / unhardened+faults /
// hardened+faults); the fault stream is a pure function of (seed, app),
// so the hardened and unhardened runs face exactly the same faults and
// the whole result is deterministic per seed.
func Chaos(o Options) (*ChaosResult, error) {
	o.applyDefaults()
	plan := fault.DefaultPlan()
	if o.FaultPlan != nil {
		plan = *o.FaultPlan
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	res := &ChaosResult{Opts: o, Plan: plan}
	var mu sync.Mutex
	err := forEachApp(o, func(p app.Params) error {
		base, _, err := runApp(o, p, ccdem.GovernorOff)
		if err != nil {
			return err
		}
		unhard, err := runChaosApp(o, p, plan, nil)
		if err != nil {
			return err
		}
		hard, err := runChaosApp(o, p, plan, core.DefaultHardening())
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		res.Rows = append(res.Rows, ChaosRow{
			App: p.Name, Cat: p.Cat,
			Baseline: base, Unhardened: unhard, Hardened: hard,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortChaosRows(res.Rows)
	return res, nil
}

// sortChaosRows restores catalog order after a concurrent campaign.
func sortChaosRows(rows []ChaosRow) {
	order := map[string]int{}
	for i, p := range app.Catalog() {
		order[p.Name] = i
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && order[rows[j-1].App] > order[rows[j].App]; j-- {
			rows[j-1], rows[j] = rows[j], rows[j-1]
		}
	}
}

// runChaosApp measures one faulted section+boost run, optionally hardened.
func runChaosApp(o Options, p app.Params, plan fault.Plan, hard *core.HardeningConfig) (ccdem.Stats, error) {
	// The injector seed folds in the app name exactly like appScript, with
	// a salt so fault decisions do not correlate with script gestures.
	seed := o.Seed
	for _, c := range []byte(p.Name) {
		seed = seed*131 + int64(c)
	}
	inj := fault.New(seed^0x5eed0fa1, plan)
	dev, err := ccdem.NewDevice(ccdem.Config{
		Width: screenW, Height: screenH,
		Governor:     ccdem.GovernorSectionBoost,
		MeterSamples: o.MeterSamples,
		Faults:       inj,
		Hardening:    hard,
	})
	if err != nil {
		return ccdem.Stats{}, err
	}
	if _, err := dev.InstallApp(p); err != nil {
		return ccdem.Stats{}, err
	}
	sc, err := appScript(o, p.Name, o.Duration)
	if err != nil {
		return ccdem.Stats{}, err
	}
	dev.PlayScript(sc)
	dev.Run(o.Duration)
	return dev.Stats(), nil
}

// ChaosSummary condenses the campaign into the acceptance numbers.
type ChaosSummary struct {
	// Mean and minimum TrueQuality (%) across apps, per configuration.
	UnhardenedMeanPct, UnhardenedMinPct float64
	HardenedMeanPct, HardenedMinPct     float64
	// Apps below the paper's 95% quality bar, per configuration.
	UnhardenedBelow95, HardenedBelow95 int
	// Mean power saved vs baseline (mW) by the hardened system — the
	// price of safety is a smaller saving, not lost quality.
	HardenedSavedMW, UnhardenedSavedMW float64
	// Fault/recovery totals across the hardened runs.
	Faults, Retries, FailSafeEnters, FailSafeExits uint64
}

// Summary computes the campaign summary.
func (c *ChaosResult) Summary() ChaosSummary {
	var s ChaosSummary
	var uq, hq, usaved, hsaved []float64
	s.UnhardenedMinPct, s.HardenedMinPct = 100, 100
	for _, r := range c.Rows {
		u := 100 * r.Unhardened.TrueQuality
		h := 100 * r.Hardened.TrueQuality
		uq = append(uq, u)
		hq = append(hq, h)
		usaved = append(usaved, r.Baseline.MeanPowerMW-r.Unhardened.MeanPowerMW)
		hsaved = append(hsaved, r.Baseline.MeanPowerMW-r.Hardened.MeanPowerMW)
		if u < s.UnhardenedMinPct {
			s.UnhardenedMinPct = u
		}
		if h < s.HardenedMinPct {
			s.HardenedMinPct = h
		}
		if u < 95 {
			s.UnhardenedBelow95++
		}
		if h < 95 {
			s.HardenedBelow95++
		}
		s.Faults += r.Hardened.FaultsInjected
		s.Retries += r.Hardened.SwitchRetries
		s.FailSafeEnters += r.Hardened.FailSafeEnters
		s.FailSafeExits += r.Hardened.FailSafeExits
	}
	s.UnhardenedMeanPct = trace.Mean(uq)
	s.HardenedMeanPct = trace.Mean(hq)
	s.UnhardenedSavedMW = trace.Mean(usaved)
	s.HardenedSavedMW = trace.Mean(hsaved)
	return s
}

// String renders the chaos report.
func (c *ChaosResult) String() string {
	var sb strings.Builder
	sb.WriteString("Chaos: display quality under injected faults (quality = displayed/intended content)\n\n")
	for _, cat := range []app.Category{app.General, app.Game} {
		sb.WriteString(fmt.Sprintf("%s applications:\n", titleCase(cat.String())))
		sb.WriteString(table(func(w *tabwriter.Writer) {
			fmt.Fprintf(w, "  app\tfaults\tunhardened\thardened\tsaved\tretries\tfail-safes\n")
			for _, r := range c.Rows {
				if r.Cat != cat {
					continue
				}
				fmt.Fprintf(w, "  %s\t%d\t%.1f%%\t%.1f%%\t%.0f mW\t%d\t%d (%d recovered)\n",
					r.App, r.Hardened.FaultsInjected,
					100*r.Unhardened.TrueQuality, 100*r.Hardened.TrueQuality,
					r.Baseline.MeanPowerMW-r.Hardened.MeanPowerMW,
					r.Hardened.SwitchRetries,
					r.Hardened.FailSafeEnters, r.Hardened.FailSafeExits)
			}
		}))
		sb.WriteString("\n")
	}
	s := c.Summary()
	sb.WriteString(fmt.Sprintf("summary: unhardened quality mean %.1f%% (min %.1f%%, %d apps < 95%%)\n",
		s.UnhardenedMeanPct, s.UnhardenedMinPct, s.UnhardenedBelow95))
	sb.WriteString(fmt.Sprintf("         hardened   quality mean %.1f%% (min %.1f%%, %d apps < 95%%)\n",
		s.HardenedMeanPct, s.HardenedMinPct, s.HardenedBelow95))
	sb.WriteString(fmt.Sprintf("         saved vs baseline: unhardened %.0f mW, hardened %.0f mW\n",
		s.UnhardenedSavedMW, s.HardenedSavedMW))
	sb.WriteString(fmt.Sprintf("         faults %d, switch retries %d, fail-safe episodes %d (%d recovered)\n",
		s.Faults, s.Retries, s.FailSafeEnters, s.FailSafeExits))
	return sb.String()
}

// WriteCSV writes one row per application.
func (c *ChaosResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "app,category,baseline_mw,unhardened_mw,hardened_mw,unhardened_quality_pct,hardened_quality_pct,faults,retries,failsafe_enters,failsafe_exits"); err != nil {
		return err
	}
	for _, r := range c.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%g,%d,%d,%d,%d\n",
			r.App, r.Cat, r.Baseline.MeanPowerMW, r.Unhardened.MeanPowerMW, r.Hardened.MeanPowerMW,
			100*r.Unhardened.TrueQuality, 100*r.Hardened.TrueQuality,
			r.Hardened.FaultsInjected, r.Hardened.SwitchRetries,
			r.Hardened.FailSafeEnters, r.Hardened.FailSafeExits); err != nil {
			return err
		}
	}
	return nil
}
