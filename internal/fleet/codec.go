// Shard wire codec: a stable, canonical encoding of Accumulator state so
// campaign shards can cross process boundaries and still merge to the
// exact bytes the in-process streamed path produces.
//
// The accumulator's whole summary is integral (µ-scaled fixed-point sums
// and integer histogram counts — see stream.go), so serializing it is
// lossless by construction: the wire document carries the integers
// themselves, never derived floats. Decoding rebuilds identical state,
// and because integer merging commutes, shard accumulators produced by
// separate worker processes merge — in shard order, per the determinism
// contract — to the same state as one process folding every device.
//
// The encoding is canonical as well as stable: histogram bins are
// emitted in ascending bin order and per-profile shards in ascending
// name order, so encoding the same accumulator state always yields the
// same bytes. That makes byte comparison of encoded shards a valid
// equality test, which the codec property tests and fuzz target rely on.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"ccdem/internal/obs"
)

// shardWireVersion is the version tag of both the accumulator and shard
// documents; decoders reject anything else.
const shardWireVersion = 1

// wireHist is one sparse histogram on the wire: its bin resolution, total
// count, and the occupied bins as [bin, count] pairs in ascending bin
// order.
type wireHist struct {
	PerUnit float64    `json:"per_unit"`
	N       int64      `json:"n"`
	Bins    [][2]int64 `json:"bins"`
}

// wireProfileAcc is one per-user-class shard: the device count and the
// µ-scaled sums behind the per-profile means.
type wireProfileAcc struct {
	Name        string `json:"name"`
	Devices     int64  `json:"devices"`
	SavedMW     int64  `json:"saved_mw_u"`
	SavedPct    int64  `json:"saved_pct_u"`
	Quality     int64  `json:"quality_u"`
	TrueQuality int64  `json:"true_quality_u"`
	ExtraHours  int64  `json:"extra_hours_u"`
}

// wireAccumulator is the complete integral summary state. The _u suffix
// marks µ-scaled fixed-point sums (value × 1e6, rounded once at Add
// time).
type wireAccumulator struct {
	Version     int   `json:"version"`
	Devices     int64 `json:"devices"`
	BaselineMW  int64 `json:"baseline_mw_u"`
	ManagedMW   int64 `json:"managed_mw_u"`
	SavedMW     int64 `json:"saved_mw_u"`
	SavedPct    int64 `json:"saved_pct_u"`
	Quality     int64 `json:"quality_u"`
	TrueQuality int64 `json:"true_quality_u"`
	ExtraHours  int64 `json:"extra_hours_u"`

	SavedPctHist    wireHist `json:"saved_pct_hist"`
	QualityHist     wireHist `json:"quality_hist"`
	TrueQualityHist wireHist `json:"true_quality_hist"`
	ExtraHoursHist  wireHist `json:"extra_hours_hist"`

	Profiles []wireProfileAcc `json:"profiles"`
}

// toWire flattens a histogram into its canonical wire form.
func (h *histogram) toWire() wireHist {
	w := wireHist{PerUnit: h.perUnit, N: h.n, Bins: make([][2]int64, 0, len(h.bins))}
	for _, b := range h.sortedBins() {
		w.Bins = append(w.Bins, [2]int64{int64(b), h.bins[b]})
	}
	return w
}

// histFromWire validates and rebuilds one histogram. perUnit is the
// resolution the field must carry at this wire version.
func histFromWire(name string, w wireHist, perUnit float64) (histogram, error) {
	if w.PerUnit != perUnit {
		return histogram{}, fmt.Errorf("fleet: shard codec: %s: per_unit %v, want %v", name, w.PerUnit, perUnit)
	}
	h := newHistogram(perUnit)
	var sum int64
	prev := int64(math.MinInt64)
	for _, bc := range w.Bins {
		bin, count := bc[0], bc[1]
		if bin < math.MinInt32 || bin > math.MaxInt32 {
			return histogram{}, fmt.Errorf("fleet: shard codec: %s: bin %d out of range", name, bin)
		}
		if bin <= prev {
			return histogram{}, fmt.Errorf("fleet: shard codec: %s: bins not in strictly ascending order at %d", name, bin)
		}
		if count <= 0 {
			return histogram{}, fmt.Errorf("fleet: shard codec: %s: non-positive count %d for bin %d", name, count, bin)
		}
		prev = bin
		h.bins[int32(bin)] = count
		sum += count
	}
	if sum != w.N {
		return histogram{}, fmt.Errorf("fleet: shard codec: %s: bin counts sum to %d, header says %d", name, sum, w.N)
	}
	h.n = w.N
	return h, nil
}

// toWire flattens the accumulator into its canonical wire form.
func (a *Accumulator) toWire() wireAccumulator {
	w := wireAccumulator{
		Version:     shardWireVersion,
		Devices:     a.devices,
		BaselineMW:  a.baselineMW,
		ManagedMW:   a.managedMW,
		SavedMW:     a.savedMW,
		SavedPct:    a.savedPct,
		Quality:     a.quality,
		TrueQuality: a.trueQuality,
		ExtraHours:  a.extraHours,

		SavedPctHist:    a.savedPctH.toWire(),
		QualityHist:     a.qualityH.toWire(),
		TrueQualityHist: a.trueQualityH.toWire(),
		ExtraHoursHist:  a.extraHoursH.toWire(),
	}
	names := make([]string, 0, len(a.profiles))
	for name := range a.profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pa := a.profiles[name]
		w.Profiles = append(w.Profiles, wireProfileAcc{
			Name:        name,
			Devices:     pa.devices,
			SavedMW:     pa.savedMW,
			SavedPct:    pa.savedPct,
			Quality:     pa.quality,
			TrueQuality: pa.trueQuality,
			ExtraHours:  pa.extraHours,
		})
	}
	return w
}

// accFromWire validates the document's integral invariants and rebuilds
// the accumulator. Every histogram must carry exactly one entry per
// folded device, and the per-profile device counts must partition the
// total — the properties Add maintains, enforced here so a corrupted or
// hand-forged shard cannot smuggle inconsistent state into a merge.
func accFromWire(w wireAccumulator) (*Accumulator, error) {
	if w.Version != shardWireVersion {
		return nil, fmt.Errorf("fleet: shard codec: unsupported version %d", w.Version)
	}
	if w.Devices < 0 {
		return nil, fmt.Errorf("fleet: shard codec: negative device count %d", w.Devices)
	}
	a := NewAccumulator()
	a.devices = w.Devices
	a.baselineMW = w.BaselineMW
	a.managedMW = w.ManagedMW
	a.savedMW = w.SavedMW
	a.savedPct = w.SavedPct
	a.quality = w.Quality
	a.trueQuality = w.TrueQuality
	a.extraHours = w.ExtraHours

	var err error
	if a.savedPctH, err = histFromWire("saved_pct_hist", w.SavedPctHist, pctBinsPerUnit); err != nil {
		return nil, err
	}
	if a.qualityH, err = histFromWire("quality_hist", w.QualityHist, pctBinsPerUnit); err != nil {
		return nil, err
	}
	if a.trueQualityH, err = histFromWire("true_quality_hist", w.TrueQualityHist, pctBinsPerUnit); err != nil {
		return nil, err
	}
	if a.extraHoursH, err = histFromWire("extra_hours_hist", w.ExtraHoursHist, hoursBinsPerUnit); err != nil {
		return nil, err
	}
	for _, h := range []struct {
		name string
		n    int64
	}{
		{"saved_pct_hist", a.savedPctH.n},
		{"quality_hist", a.qualityH.n},
		{"true_quality_hist", a.trueQualityH.n},
		{"extra_hours_hist", a.extraHoursH.n},
	} {
		if h.n != w.Devices {
			return nil, fmt.Errorf("fleet: shard codec: %s holds %d samples for %d devices", h.name, h.n, w.Devices)
		}
	}
	var profileDevices int64
	prev := ""
	for _, wp := range w.Profiles {
		if wp.Name == "" {
			return nil, fmt.Errorf("fleet: shard codec: profile with empty name")
		}
		if wp.Name <= prev {
			return nil, fmt.Errorf("fleet: shard codec: profiles not in strictly ascending name order at %q", wp.Name)
		}
		if wp.Devices <= 0 {
			return nil, fmt.Errorf("fleet: shard codec: profile %s: non-positive device count %d", wp.Name, wp.Devices)
		}
		prev = wp.Name
		profileDevices += wp.Devices
		a.profiles[wp.Name] = &profileAccumulator{
			devices:     wp.Devices,
			savedMW:     wp.SavedMW,
			savedPct:    wp.SavedPct,
			quality:     wp.Quality,
			trueQuality: wp.TrueQuality,
			extraHours:  wp.ExtraHours,
		}
	}
	if profileDevices != w.Devices {
		return nil, fmt.Errorf("fleet: shard codec: profile shards hold %d devices, total is %d", profileDevices, w.Devices)
	}
	return a, nil
}

// Encode writes the accumulator's canonical wire document. Identical
// accumulator state always encodes to identical bytes.
func (a *Accumulator) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(a.toWire())
}

// DecodeAccumulator parses and validates an accumulator document.
// Decode(Encode(a)) reconstructs state bit-identical to a: merging and
// finalizing decoded accumulators yields the same bytes as the originals.
func DecodeAccumulator(r io.Reader) (*Accumulator, error) {
	var w wireAccumulator
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("fleet: shard codec: %w", err)
	}
	return accFromWire(w)
}

// Shard is one worker process's share of a campaign: which contiguous
// slice of the device index space it covered, the accumulator it folded,
// and the devices that failed inside the slice. ProfileOrder carries the
// cohort's profile declaration order so the central merge can finalize
// the aggregate with the same per-profile breakdown order as a
// single-process run, without re-reading the spec.
//
// Spans is a telemetry sidecar: wall-clock stage spans ("run", "encode")
// the worker recorded about itself, relative to its own shard start. It
// rides the wire so a multi-process campaign can assemble one trace, but
// it is explicitly outside the determinism contract — spans never feed
// the merged Result, and a span-free shard encodes to the same bytes it
// did before spans existed.
type Shard struct {
	Index         int
	Count         int
	CohortDevices int
	ProfileOrder  []string
	Failed        []DeviceFailure
	Acc           *Accumulator
	Spans         []obs.Span
}

// maxWireSpans bounds the telemetry sidecar: a shard worker records a
// handful of stage spans, so anything bigger is a malformed document.
const maxWireSpans = 4096

// wireSpan is one telemetry span on the wire, microsecond-resolution
// offsets from the worker's shard start.
type wireSpan struct {
	Name    string `json:"name"`
	Worker  int    `json:"worker"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// wireShard is the shard worker's complete output document.
type wireShard struct {
	Version       int             `json:"version"`
	Shard         int             `json:"shard"`
	Of            int             `json:"of"`
	CohortDevices int             `json:"cohort_devices"`
	ProfileOrder  []string        `json:"profile_order"`
	Failed        []DeviceFailure `json:"failed,omitempty"`
	Accumulator   wireAccumulator `json:"accumulator"`
	Spans         []wireSpan      `json:"spans,omitempty"`
}

// Encode writes the shard's wire document.
func (s *Shard) Encode(w io.Writer) error {
	doc := wireShard{
		Version:       shardWireVersion,
		Shard:         s.Index,
		Of:            s.Count,
		CohortDevices: s.CohortDevices,
		ProfileOrder:  s.ProfileOrder,
		Failed:        s.Failed,
		Accumulator:   s.Acc.toWire(),
	}
	for _, sp := range s.Spans {
		doc.Spans = append(doc.Spans, wireSpan{
			Name:    sp.Name,
			Worker:  sp.Worker,
			StartUS: int64(sp.Start / time.Microsecond),
			EndUS:   int64(sp.End / time.Microsecond),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// DecodeShard parses and validates a shard document: the shard position
// must be coherent, the profile order duplicate-free and covering every
// profile the accumulator saw, and the accumulator plus failure rows must
// account for exactly the shard's slice of the device index space.
func DecodeShard(r io.Reader) (*Shard, error) {
	var doc wireShard
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("fleet: shard codec: %w", err)
	}
	if doc.Version != shardWireVersion {
		return nil, fmt.Errorf("fleet: shard codec: unsupported version %d", doc.Version)
	}
	if doc.Of < 1 || doc.Shard < 0 || doc.Shard >= doc.Of {
		return nil, fmt.Errorf("fleet: shard codec: invalid shard position %d/%d", doc.Shard, doc.Of)
	}
	if doc.CohortDevices <= 0 {
		return nil, fmt.Errorf("fleet: shard codec: non-positive cohort device count %d", doc.CohortDevices)
	}
	if len(doc.ProfileOrder) == 0 {
		return nil, fmt.Errorf("fleet: shard codec: empty profile order")
	}
	known := make(map[string]bool, len(doc.ProfileOrder))
	for _, name := range doc.ProfileOrder {
		if name == "" {
			return nil, fmt.Errorf("fleet: shard codec: empty profile name in profile order")
		}
		if known[name] {
			return nil, fmt.Errorf("fleet: shard codec: duplicate profile %q in profile order", name)
		}
		known[name] = true
	}
	acc, err := accFromWire(doc.Accumulator)
	if err != nil {
		return nil, err
	}
	for name := range acc.profiles {
		if !known[name] {
			return nil, fmt.Errorf("fleet: shard codec: accumulator profile %q absent from profile order", name)
		}
	}
	lo, hi := ShardRange(doc.CohortDevices, doc.Shard, doc.Of)
	if got := acc.devices + int64(len(doc.Failed)); got != int64(hi-lo) {
		return nil, fmt.Errorf("fleet: shard codec: shard %d/%d accounts for %d devices, slice [%d,%d) holds %d",
			doc.Shard, doc.Of, got, lo, hi, hi-lo)
	}
	seen := make(map[int]bool, len(doc.Failed))
	for _, f := range doc.Failed {
		if f.Device < lo || f.Device >= hi {
			return nil, fmt.Errorf("fleet: shard codec: failed device %d outside shard slice [%d,%d)", f.Device, lo, hi)
		}
		if seen[f.Device] {
			return nil, fmt.Errorf("fleet: shard codec: duplicate failed device %d", f.Device)
		}
		seen[f.Device] = true
	}
	if len(doc.Spans) > maxWireSpans {
		return nil, fmt.Errorf("fleet: shard codec: %d telemetry spans exceed the %d cap", len(doc.Spans), maxWireSpans)
	}
	var spans []obs.Span
	for _, sp := range doc.Spans {
		if sp.Name == "" {
			return nil, fmt.Errorf("fleet: shard codec: telemetry span with empty name")
		}
		if sp.Worker < 0 {
			return nil, fmt.Errorf("fleet: shard codec: span %q: negative worker %d", sp.Name, sp.Worker)
		}
		if sp.StartUS < 0 || sp.EndUS < sp.StartUS {
			return nil, fmt.Errorf("fleet: shard codec: span %q: invalid interval [%d,%d]us", sp.Name, sp.StartUS, sp.EndUS)
		}
		spans = append(spans, obs.Span{
			Name:   sp.Name,
			Worker: sp.Worker,
			Start:  time.Duration(sp.StartUS) * time.Microsecond,
			End:    time.Duration(sp.EndUS) * time.Microsecond,
		})
	}
	return &Shard{
		Index:         doc.Shard,
		Count:         doc.Of,
		CohortDevices: doc.CohortDevices,
		ProfileOrder:  doc.ProfileOrder,
		Failed:        doc.Failed,
		Acc:           acc,
		Spans:         spans,
	}, nil
}

// MergeShards folds a campaign's shard set into the final result through
// a Checkpoint: AddShard per shard, which enforces the set's consistency,
// then Result. It is the distributed counterpart of the in-process
// streamed path merging worker shards. Because the shard state is
// integral, the aggregate is byte-identical to a single process running
// the whole cohort, in whatever order the shards come. The set must hold
// exactly one shard per index of one consistent campaign. Shards and
// their accumulators must not be used afterwards.
func MergeShards(shards []*Shard) (*Result, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: merge: no shards")
	}
	c := NewCheckpoint("", "", shards[0].Count)
	for _, s := range shards {
		if err := c.AddShard(s); err != nil {
			return nil, err
		}
	}
	return c.Result()
}

// ParseShard parses an "index/count" shard position ("0/2", "1/2", ...).
func ParseShard(s string) (index, count int, err error) {
	is, cs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("fleet: shard position %q not in index/count form", s)
	}
	index, errI := strconv.Atoi(is)
	count, errC := strconv.Atoi(cs)
	if errI != nil || errC != nil {
		return 0, 0, fmt.Errorf("fleet: shard position %q not in index/count form", s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("fleet: invalid shard position %d/%d", index, count)
	}
	return index, count, nil
}
