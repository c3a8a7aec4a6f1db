package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"ccdem"
	"ccdem/internal/core"
	"ccdem/internal/display"
)

// ScalingRow is one device profile's result in the panel-scaling
// extension experiment.
type ScalingRow struct {
	Profile    display.Profile
	App        string
	BaselineMW float64
	ManagedMW  float64
	SavedMW    float64
	SavedPct   float64
	Quality    float64
	// MeanRefreshHz under management — how deep the governor idles.
	MeanRefreshHz float64
	// Thresholds derived by the section rule for this panel.
	Thresholds []float64
}

// ScalingResult is the extension experiment running the unmodified scheme
// on panels beyond the paper's 2012 target: the section table re-derives
// itself from each panel's level menu (Eq. 1 is device-independent), and
// savings *grow* with peak refresh rate because the baseline waste grows.
type ScalingResult struct {
	Rows []ScalingRow
}

// Scaling measures two representative workloads per profile.
func Scaling(o Options) (*ScalingResult, error) {
	o.applyDefaults()
	res := &ScalingResult{}
	for _, profile := range display.Profiles() {
		for _, appName := range []string{"Jelly Splash", "Facebook"} {
			p, err := catalogApp(appName)
			if err != nil {
				return nil, err
			}
			run := func(mode ccdem.GovernorMode) (ccdem.Stats, error) {
				dev, err := ccdem.NewDevice(ccdem.Config{
					Width: profile.Width, Height: profile.Height,
					RefreshLevels: profile.Levels,
					FastUpswitch:  profile.FastUpswitch,
					Governor:      mode,
					MeterSamples:  o.MeterSamples,
				})
				if err != nil {
					return ccdem.Stats{}, err
				}
				if _, err := dev.InstallApp(p); err != nil {
					return ccdem.Stats{}, err
				}
				sc, err := appScript(o, appName+profile.Name, o.Duration)
				if err != nil {
					return ccdem.Stats{}, err
				}
				dev.PlayScript(sc)
				dev.Run(o.Duration)
				return dev.Stats(), nil
			}
			base, err := run(ccdem.GovernorOff)
			if err != nil {
				return nil, err
			}
			managed, err := run(ccdem.GovernorSectionBoost)
			if err != nil {
				return nil, err
			}
			table, err := core.NewSectionTable(profile.Levels)
			if err != nil {
				return nil, err
			}
			row := ScalingRow{
				Profile:       profile,
				App:           appName,
				BaselineMW:    base.MeanPowerMW,
				ManagedMW:     managed.MeanPowerMW,
				SavedMW:       base.MeanPowerMW - managed.MeanPowerMW,
				Quality:       managed.DisplayQuality,
				MeanRefreshHz: managed.MeanRefreshHz,
				Thresholds:    table.Thresholds(),
			}
			if base.MeanPowerMW > 0 {
				row.SavedPct = 100 * row.SavedMW / base.MeanPowerMW
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// RowsFor returns the rows of one profile.
func (r *ScalingResult) RowsFor(name string) []ScalingRow {
	var out []ScalingRow
	for _, row := range r.Rows {
		if row.Profile.Name == name {
			out = append(out, row)
		}
	}
	return out
}

// String renders the scaling table.
func (r *ScalingResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension: the scheme on newer panels (section table auto-derived per panel)\n\n")
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "  panel\tapp\tbaseline\tmanaged\tsaved\tmean refresh\tquality\n")
		for _, row := range r.Rows {
			fmt.Fprintf(w, "  %s (%dHz)\t%s\t%.0f mW\t%.0f mW\t%.0f mW (%.0f%%)\t%.1f Hz\t%.1f%%\n",
				row.Profile.Name, row.Profile.MaxLevel(), row.App,
				row.BaselineMW, row.ManagedMW, row.SavedMW, row.SavedPct,
				row.MeanRefreshHz, 100*row.Quality)
		}
	}))
	sb.WriteString("\n  higher peak rates waste more at fixed refresh, so savings grow with the panel.\n")
	return sb.String()
}
