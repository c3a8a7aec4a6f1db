package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"ccdem/internal/trace"
)

// Aggregate is the fleet-wide view of a cohort run: what the scheme saves
// across the population rather than on one device. Percentiles and the
// quality CDF reuse the summary statistics of internal/trace; battery
// figures come from internal/battery via each device's estimate.
type Aggregate struct {
	Devices int `json:"devices"`
	// FailedDevices counts devices excluded from the aggregate because
	// their session could not be measured (see Result.Failed).
	FailedDevices int `json:"failed_devices,omitempty"`

	MeanBaselineMW float64 `json:"mean_baseline_mw"`
	MeanManagedMW  float64 `json:"mean_managed_mw"`
	MeanSavedMW    float64 `json:"mean_saved_mw"`

	SavedPctMean float64 `json:"saved_pct_mean"`
	SavedPctP50  float64 `json:"saved_pct_p50"`
	SavedPctP95  float64 `json:"saved_pct_p95"`

	QualityPctMean float64 `json:"quality_pct_mean"`
	// TrueQualityPctMean averages the meter-independent displayed/
	// intended ratio — the metric to trust under fault injection.
	TrueQualityPctMean float64 `json:"true_quality_pct_mean"`
	// QualityPctP5 is the quality of the worst-served 5% of users — the
	// tail a deployment decision cares about.
	QualityPctP5 float64 `json:"quality_pct_p5"`
	// QualityCDF is the empirical display-quality CDF across devices
	// (values rounded to 0.1% so the curve stays compact at fleet scale).
	QualityCDF []trace.CDFPoint `json:"quality_cdf"`

	ExtraHoursMean float64 `json:"extra_hours_mean"`
	ExtraHoursP50  float64 `json:"extra_hours_p50"`
	ExtraHoursP95  float64 `json:"extra_hours_p95"`

	Profiles []ProfileAggregate `json:"profiles"`
}

// ProfileAggregate is the per-user-class breakdown of the fleet.
type ProfileAggregate struct {
	Profile string `json:"profile"`
	Devices int    `json:"devices"`

	MeanSavedMW    float64 `json:"mean_saved_mw"`
	SavedPctMean   float64 `json:"saved_pct_mean"`
	QualityPctMean float64 `json:"quality_pct_mean"`
	// TrueQualityPctMean is the class's mean meter-independent quality —
	// the per-profile counterpart of Aggregate.TrueQualityPctMean.
	TrueQualityPctMean float64 `json:"true_quality_pct_mean"`
	ExtraHoursMean     float64 `json:"extra_hours_mean"`
}

// String renders the aggregate as a report table.
func (a Aggregate) String() string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("Fleet aggregate (%d devices):\n", a.Devices))
	if a.FailedDevices > 0 {
		sb.WriteString(fmt.Sprintf("  failed devices: %d (excluded from the aggregate)\n", a.FailedDevices))
	}
	sb.WriteString(fmt.Sprintf("  power: %.0f mW baseline → %.0f mW managed (mean saved %.0f mW)\n",
		a.MeanBaselineMW, a.MeanManagedMW, a.MeanSavedMW))
	sb.WriteString(fmt.Sprintf("  saving: mean %.1f%%, p50 %.1f%%, p95 %.1f%%\n",
		a.SavedPctMean, a.SavedPctP50, a.SavedPctP95))
	sb.WriteString(fmt.Sprintf("  display quality: mean %.1f%%, worst 5%% of users ≥ %.1f%%\n",
		a.QualityPctMean, a.QualityPctP5))
	sb.WriteString(fmt.Sprintf("  battery: +%.2f h screen-on mean (p50 %.2f h, p95 %.2f h)\n",
		a.ExtraHoursMean, a.ExtraHoursP50, a.ExtraHoursP95))
	if len(a.Profiles) > 0 {
		w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "  profile\tdevices\tsaved\tsaving\tquality\ttrue quality\tbattery\n")
		for _, p := range a.Profiles {
			fmt.Fprintf(w, "  %s\t%d\t%.0f mW\t%.1f%%\t%.1f%%\t%.1f%%\t+%.2f h\n",
				p.Profile, p.Devices, p.MeanSavedMW, p.SavedPctMean, p.QualityPctMean,
				p.TrueQualityPctMean, p.ExtraHoursMean)
		}
		w.Flush()
	}
	return sb.String()
}

// WriteJSON writes the run as an indented JSON document. With perDevice
// false only the aggregate is emitted. Output is byte-identical for
// identical cohorts regardless of worker count.
func (r *Result) WriteJSON(w io.Writer, perDevice bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if !perDevice {
		return enc.Encode(struct {
			Aggregate Aggregate `json:"aggregate"`
		}{r.Aggregate})
	}
	return enc.Encode(r)
}

// WriteCSVHeader writes the per-device CSV column header. Streamed
// cohorts emit it once up front and then one WriteCSVRow per result
// delivered to their sink, so per-device CSV output never requires
// retaining results.
func WriteCSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, "device,profile,session_s,baseline_mw,managed_mw,saved_mw,saved_pct,quality_pct,true_quality_pct,baseline_hours,managed_hours,extra_hours")
	return err
}

// WriteCSVRow writes the result's CSV row (no header), matching
// WriteCSVHeader's column order.
func (d DeviceResult) WriteCSVRow(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%d,%s,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
		d.Device, d.Profile, d.SessionS, d.BaselineMW, d.ManagedMW,
		d.SavedMW, d.SavedPct, d.QualityPct, d.TrueQualityPct,
		d.BaselineHours, d.ManagedHours, d.ExtraHours)
	return err
}

// WriteCSV writes one row per device, in device order.
func (r *Result) WriteCSV(w io.Writer) error {
	if err := WriteCSVHeader(w); err != nil {
		return err
	}
	for _, d := range r.Devices {
		if err := d.WriteCSVRow(w); err != nil {
			return err
		}
	}
	return nil
}
