package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"ccdem"
	"ccdem/internal/power"
)

// FrontierPoint is one scheme on the quality-power plane.
type FrontierPoint struct {
	Scheme  string
	SavedMW float64
	// Quality folds both quality dimensions into one number: display
	// quality (content fidelity, the paper's metric) × luminance
	// fidelity (the DVS literature's metric). Schemes that compromise
	// neither sit at 1.0.
	Quality float64

	DisplayQuality    float64
	LuminanceFidelity float64
}

// FrontierResult is the extension experiment drawing the paper's central
// related-work argument as data: DVS-class schemes (refs [3,4,15]) buy
// power with luminance, the content-centric scheme buys (more) power with
// (almost) nothing, and the two compose because they act on different
// terms of the panel power.
type FrontierResult struct {
	App    string
	Points []FrontierPoint
}

// Frontier measures the quality-power frontier on an OLED variant of the
// device for one representative high-redundancy application.
func Frontier(o Options) (*FrontierResult, error) {
	o.applyDefaults()
	const appName = "Jelly Splash"
	p, err := catalogApp(appName)
	if err != nil {
		return nil, err
	}
	oledBase := power.OLEDPanel{BaseMW: 50, PerHzMW: 3.0, MaxEmissionMW: 700}

	run := func(mode ccdem.GovernorMode, level power.DVSLevel) (ccdem.Stats, error) {
		params := power.DefaultParams()
		params.Panel = power.DVSPanel{Base: oledBase, Level: level}
		dev, err := ccdem.NewDevice(ccdem.Config{
			Width: screenW, Height: screenH,
			Governor:     mode,
			MeterSamples: o.MeterSamples,
			PowerParams:  &params,
		})
		if err != nil {
			return ccdem.Stats{}, err
		}
		if _, err := dev.InstallApp(p); err != nil {
			return ccdem.Stats{}, err
		}
		sc, err := appScript(o, appName, o.Duration)
		if err != nil {
			return ccdem.Stats{}, err
		}
		dev.PlayScript(sc)
		dev.Run(o.Duration)
		return dev.Stats(), nil
	}

	nominal := power.DVSLevel{VoltageScale: 1}
	base, err := run(ccdem.GovernorOff, nominal)
	if err != nil {
		return nil, err
	}

	res := &FrontierResult{App: appName}
	add := func(scheme string, st ccdem.Stats, level power.DVSLevel) {
		lum := level.LuminanceScale()
		res.Points = append(res.Points, FrontierPoint{
			Scheme:            scheme,
			SavedMW:           base.MeanPowerMW - st.MeanPowerMW,
			Quality:           st.DisplayQuality * lum,
			DisplayQuality:    st.DisplayQuality,
			LuminanceFidelity: lum,
		})
	}
	add("baseline", base, nominal)

	// DVS alone at each sub-nominal level (fixed 60 Hz refresh).
	for _, level := range power.StandardDVSLevels[1:] {
		st, err := run(ccdem.GovernorOff, level)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("DVS %.2fV", level.VoltageScale), st, level)
	}

	// The paper's scheme alone.
	full, err := run(ccdem.GovernorSectionBoost, nominal)
	if err != nil {
		return nil, err
	}
	add("ccdem", full, nominal)

	// Composed: content-centric refresh control on a voltage-scaled panel.
	deepest := power.StandardDVSLevels[len(power.StandardDVSLevels)-1]
	both, err := run(ccdem.GovernorSectionBoost, deepest)
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("ccdem + DVS %.2fV", deepest.VoltageScale), both, deepest)
	return res, nil
}

// String renders the frontier table.
func (r *FrontierResult) String() string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf(
		"Extension: quality-power frontier on OLED (%s)\n\n", r.App))
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "  scheme\tsaved\tdisplay quality\tluminance\tcombined quality\n")
		for _, pt := range r.Points {
			fmt.Fprintf(w, "  %s\t%.0f mW\t%.1f%%\t%.1f%%\t%.1f%%\n",
				pt.Scheme, pt.SavedMW, 100*pt.DisplayQuality,
				100*pt.LuminanceFidelity, 100*pt.Quality)
		}
	}))
	sb.WriteString("\n  DVS buys power with luminance; content-centric control buys more power\n")
	sb.WriteString("  with almost none, and the two compose (different terms of panel power).\n")
	return sb.String()
}
