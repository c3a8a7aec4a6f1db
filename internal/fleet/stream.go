// Streaming fleet aggregation: Accumulator folds per-device results into
// a constant-size, mergeable summary, so million-device campaigns compute
// their Aggregate in O(workers) memory instead of O(devices).
//
// Determinism is achieved the way production telemetry pipelines do it —
// by making the summary state integral, so accumulation commutes:
//
//   - Means are fixed-point sums: every value is scaled to micro-units
//     and rounded to int64 once at Add time; integer addition is
//     associative and commutative, so any partition of the cohort into
//     per-worker shards merges to the same sums.
//   - Percentiles and CDFs come from fixed-bin counting histograms at
//     the 0.1 resolution quality values are rounded to, with integer
//     counts. Reconstructing the virtual sorted slice from the merged
//     bins replicates trace.Percentile and trace.CDF bit-for-bit (same
//     position arithmetic, same interpolation, same float divisions).
//
// Every cohort run feeds one Accumulator per worker and merges them in
// worker order. Identical integer state in, identical Aggregate out: the
// aggregate equals a single Accumulator fed in device order, at any
// worker count.
package fleet

import (
	"math"
	"sort"

	"ccdem/internal/trace"
)

// microScale is the fixed-point resolution of the accumulator's sums:
// values are stored as integer micro-units (1e-6). At that resolution the
// per-value rounding error is below 5e-7 — far inside the noise floor of
// the modeled power figures — and a million-device cohort's sums stay
// ten thousand times short of int64 overflow.
const microScale = 1e6

// Bins per unit for the fixed-bin histograms. Percentage metrics use the
// 0.1-point resolution quality is rounded to; battery-hours use 0.001 h
// (3.6 s of screen-on time).
const (
	pctBinsPerUnit   = 10
	hoursBinsPerUnit = 1000
)

// fixed converts a value to the scaled integer domain.
func fixed(v float64) int64 { return int64(math.Round(v * microScale)) }

// histogram is a sparse fixed-bin counting histogram over
// round(v·perUnit) bins. All state is integral, so merging histograms in
// any order yields the same state.
type histogram struct {
	perUnit float64
	bins    map[int32]int64
	n       int64
}

func newHistogram(perUnit float64) histogram {
	return histogram{perUnit: perUnit, bins: make(map[int32]int64)}
}

func (h *histogram) add(v float64) {
	h.bins[int32(math.Round(v*h.perUnit))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for b, c := range o.bins {
		h.bins[b] += c
	}
	h.n += o.n
}

// sortedBins returns the occupied bins in ascending order — the distinct
// values of the virtual sorted sample slice.
func (h *histogram) sortedBins() []int32 {
	bins := make([]int32, 0, len(h.bins))
	for b := range h.bins {
		bins = append(bins, b)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	return bins
}

// value maps a bin back to its sample value. For a 0.1-resolution bin
// this is exactly math.Round(v*10)/10: the rounded float is an exact
// small integer, the int32 round-trip is lossless, and the final division
// uses the same operands — so reconstructed values match a sort of the
// rounded samples.
func (h *histogram) value(bin int32) float64 { return float64(bin) / h.perUnit }

// valueAt returns the idx-th smallest sample (0-based) by walking
// cumulative counts over the sorted bins.
func (h *histogram) valueAt(bins []int32, idx int64) float64 {
	var cum int64
	for _, b := range bins {
		cum += h.bins[b]
		if idx < cum {
			return h.value(b)
		}
	}
	return h.value(bins[len(bins)-1])
}

// percentile replicates trace.Percentile over the virtual sorted slice of
// binned samples, bit-for-bit: same position arithmetic, same linear
// interpolation, same boundary cases.
func (h *histogram) percentile(bins []int32, p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.value(bins[0])
	}
	if p >= 100 {
		return h.value(bins[len(bins)-1])
	}
	pos := p / 100 * float64(h.n-1)
	lo := int64(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= h.n {
		return h.valueAt(bins, lo)
	}
	return h.valueAt(bins, lo)*(1-frac) + h.valueAt(bins, lo+1)*frac
}

// cdf replicates trace.CDF over the binned samples: one point per
// occupied bin (distinct value), carrying the fraction of samples ≤ it,
// computed with the same float division.
func (h *histogram) cdf(bins []int32) []trace.CDFPoint {
	if h.n == 0 {
		return nil
	}
	out := make([]trace.CDFPoint, 0, len(bins))
	var cum int64
	for _, b := range bins {
		cum += h.bins[b]
		out = append(out, trace.CDFPoint{Value: h.value(b), Frac: float64(cum) / float64(h.n)})
	}
	return out
}

// mean returns the fixed-point sum scaled back to a float mean over n.
func mean(sum, n int64) float64 { return float64(sum) / microScale / float64(n) }

// Accumulator folds DeviceResults into the constant-size summary behind
// Aggregate. It is not safe for concurrent use; streamed cohorts keep one
// shard per worker and Merge them afterwards. Because all state is
// integral, the shard partition and merge order do not affect the result.
type Accumulator struct {
	devices int64

	// µ-scaled sums. Quality sums are over the 0.1-rounded values.
	baselineMW  int64
	managedMW   int64
	savedMW     int64
	savedPct    int64
	quality     int64
	trueQuality int64
	extraHours  int64

	savedPctH    histogram
	qualityH     histogram
	trueQualityH histogram
	extraHoursH  histogram

	profiles map[string]*profileAccumulator
}

// profileAccumulator is the per-user-class shard: device count and
// µ-scaled sums over the raw (unrounded) per-device values.
type profileAccumulator struct {
	devices     int64
	savedMW     int64
	savedPct    int64
	quality     int64
	trueQuality int64
	extraHours  int64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		savedPctH:    newHistogram(pctBinsPerUnit),
		qualityH:     newHistogram(pctBinsPerUnit),
		trueQualityH: newHistogram(pctBinsPerUnit),
		extraHoursH:  newHistogram(hoursBinsPerUnit),
		profiles:     make(map[string]*profileAccumulator),
	}
}

// Add folds one device's result into the summary.
func (a *Accumulator) Add(r DeviceResult) {
	a.devices++
	a.baselineMW += fixed(r.BaselineMW)
	a.managedMW += fixed(r.ManagedMW)
	a.savedMW += fixed(r.SavedMW)
	a.savedPct += fixed(r.SavedPct)
	quality := math.Round(r.QualityPct*10) / 10
	trueQuality := math.Round(r.TrueQualityPct*10) / 10
	a.quality += fixed(quality)
	a.trueQuality += fixed(trueQuality)
	a.extraHours += fixed(r.ExtraHours)

	a.savedPctH.add(r.SavedPct)
	a.qualityH.add(quality)
	a.trueQualityH.add(trueQuality)
	a.extraHoursH.add(r.ExtraHours)

	pa := a.profiles[r.Profile]
	if pa == nil {
		pa = &profileAccumulator{}
		a.profiles[r.Profile] = pa
	}
	pa.devices++
	pa.savedMW += fixed(r.SavedMW)
	pa.savedPct += fixed(r.SavedPct)
	pa.quality += fixed(r.QualityPct)
	pa.trueQuality += fixed(r.TrueQualityPct)
	pa.extraHours += fixed(r.ExtraHours)
}

// Merge folds another accumulator's state into a. The other accumulator
// must not be used afterwards. Merge order is irrelevant to the result.
func (a *Accumulator) Merge(b *Accumulator) {
	a.devices += b.devices
	a.baselineMW += b.baselineMW
	a.managedMW += b.managedMW
	a.savedMW += b.savedMW
	a.savedPct += b.savedPct
	a.quality += b.quality
	a.trueQuality += b.trueQuality
	a.extraHours += b.extraHours
	a.savedPctH.merge(&b.savedPctH)
	a.qualityH.merge(&b.qualityH)
	a.trueQualityH.merge(&b.trueQualityH)
	a.extraHoursH.merge(&b.extraHoursH)
	for name, pb := range b.profiles {
		pa := a.profiles[name]
		if pa == nil {
			pa = &profileAccumulator{}
			a.profiles[name] = pa
		}
		pa.devices += pb.devices
		pa.savedMW += pb.savedMW
		pa.savedPct += pb.savedPct
		pa.quality += pb.quality
		pa.trueQuality += pb.trueQuality
		pa.extraHours += pb.extraHours
	}
}

// Devices returns the number of results folded in so far.
func (a *Accumulator) Devices() int { return int(a.devices) }

// Aggregate finalizes the summary. profiles fixes the per-profile
// breakdown order to the cohort's declaration order.
func (a *Accumulator) Aggregate(profiles []Profile) Aggregate {
	agg := Aggregate{Devices: int(a.devices)}
	if a.devices == 0 {
		return agg
	}
	n := a.devices
	agg.MeanBaselineMW = mean(a.baselineMW, n)
	agg.MeanManagedMW = mean(a.managedMW, n)
	agg.MeanSavedMW = mean(a.savedMW, n)

	bins := a.savedPctH.sortedBins()
	agg.SavedPctMean = mean(a.savedPct, n)
	agg.SavedPctP50 = a.savedPctH.percentile(bins, 50)
	agg.SavedPctP95 = a.savedPctH.percentile(bins, 95)

	bins = a.qualityH.sortedBins()
	agg.QualityPctMean = mean(a.quality, n)
	agg.TrueQualityPctMean = mean(a.trueQuality, n)
	agg.QualityPctP5 = a.qualityH.percentile(bins, 5)
	agg.QualityCDF = a.qualityH.cdf(bins)

	bins = a.extraHoursH.sortedBins()
	agg.ExtraHoursMean = mean(a.extraHours, n)
	agg.ExtraHoursP50 = a.extraHoursH.percentile(bins, 50)
	agg.ExtraHoursP95 = a.extraHoursH.percentile(bins, 95)

	for _, p := range profiles {
		out := ProfileAggregate{Profile: p.Name}
		if pa := a.profiles[p.Name]; pa != nil && pa.devices > 0 {
			out.Devices = int(pa.devices)
			out.MeanSavedMW = mean(pa.savedMW, pa.devices)
			out.SavedPctMean = mean(pa.savedPct, pa.devices)
			out.QualityPctMean = mean(pa.quality, pa.devices)
			out.TrueQualityPctMean = mean(pa.trueQuality, pa.devices)
			out.ExtraHoursMean = mean(pa.extraHours, pa.devices)
		}
		agg.Profiles = append(agg.Profiles, out)
	}
	return agg
}
