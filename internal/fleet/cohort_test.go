package fleet

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ccdem"
	"ccdem/internal/sim"
)

// testCohort keeps unit runs fast: few devices, short sessions, a coarse
// metering grid. Shapes and determinism are asserted, not absolute values.
func testCohort(devices int) Cohort {
	return Cohort{
		Devices:      devices,
		Seed:         7,
		Session:      4 * sim.Second,
		MeterSamples: 1024,
	}
}

func TestCohortDeterministicAcrossWorkers(t *testing.T) {
	cohort := testCohort(6)
	var outputs []string
	for _, workers := range []int{1, 8} {
		r, err := cohort.Run(context.Background(), Pool{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf, true); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("aggregate JSON differs between 1 and 8 workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestCohortTileVsNaivePixels pins the fleet-level differential contract:
// a campaign on the production pixel pipeline (tile tracking, palette
// tiles and the app state memo — the default) produces byte-identical
// per-device rows and aggregates to the same campaign on the brute-force
// oracle pipeline, which has none of them, at 1, 2, 4 and 8 workers.
func TestCohortTileVsNaivePixels(t *testing.T) {
	var outputs []string
	for _, naive := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			cohort := testCohort(6)
			cohort.NaivePixels = naive
			r, err := cohort.Run(context.Background(), Pool{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.WriteJSON(&buf, true); err != nil {
				t.Fatal(err)
			}
			outputs = append(outputs, buf.String())
		}
	}
	for i, out := range outputs[1:] {
		if out != outputs[0] {
			t.Fatalf("campaign output %d differs from the production reference:\n--- reference ---\n%s\n--- got ---\n%s",
				i+1, outputs[0], out)
		}
	}
}

func TestCohortAggregateShape(t *testing.T) {
	cohort := testCohort(8)
	r, err := cohort.Run(context.Background(), Pool{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Devices) != 8 {
		t.Fatalf("device rows = %d, want 8", len(r.Devices))
	}
	a := r.Aggregate
	if a.Devices != 8 {
		t.Errorf("aggregate devices = %d", a.Devices)
	}
	// The managed configuration must save power on average and keep
	// quality in (0, 100].
	if a.MeanSavedMW <= 0 {
		t.Errorf("mean saved = %v mW, want > 0", a.MeanSavedMW)
	}
	if a.QualityPctMean <= 0 || a.QualityPctMean > 100 {
		t.Errorf("mean quality = %v%%, want in (0,100]", a.QualityPctMean)
	}
	if a.ExtraHoursMean <= 0 {
		t.Errorf("mean extra hours = %v, want > 0", a.ExtraHoursMean)
	}
	if len(a.QualityCDF) == 0 {
		t.Error("empty quality CDF")
	}
	total := 0
	for _, p := range a.Profiles {
		total += p.Devices
	}
	if total != 8 {
		t.Errorf("profile device counts sum to %d, want 8", total)
	}
	for i, d := range r.Devices {
		if d.Device != i {
			t.Fatalf("device row %d holds device %d; rows must stay index-addressed", i, d.Device)
		}
		if d.BaselineMW <= 0 || d.ManagedMW <= 0 {
			t.Errorf("device %d: non-positive power %v/%v", i, d.BaselineMW, d.ManagedMW)
		}
	}
	if !strings.Contains(a.String(), "Fleet aggregate") {
		t.Error("String() missing header")
	}
}

func TestCohortValidation(t *testing.T) {
	cases := []struct {
		name   string
		cohort Cohort
	}{
		{"no devices", Cohort{}},
		{"unknown app", Cohort{Devices: 1, Profiles: []Profile{{
			Name: "p", Weight: 1, Apps: []AppShare{{Name: "No Such App", Weight: 1}},
		}}}},
		{"zero weight profile", Cohort{Devices: 1, Profiles: []Profile{{
			Name: "p", Weight: 0, Apps: []AppShare{{Name: "Facebook", Weight: 1}},
		}}}},
		{"bad jitter", Cohort{Devices: 1, Profiles: []Profile{{
			Name: "p", Weight: 1, SessionJitter: 1.5,
			Apps: []AppShare{{Name: "Facebook", Weight: 1}},
		}}}},
		// A negative MeterSamples turns a device's meter off, which only
		// the cohort's own baselines may do: specs, ccdem-fleet flags and
		// svc jobs all reach Validate, so none can unmeter the managed run.
		{"meter off", Cohort{Devices: 1, MeterSamples: -1}},
	}
	for _, tc := range cases {
		if _, err := tc.cohort.Run(context.Background(), Pool{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCohortGovernorDefaultsToBoost(t *testing.T) {
	c := testCohort(1)
	c.applyDefaults()
	if c.Governor != ccdem.GovernorSectionBoost {
		t.Errorf("default governor = %v, want section+boost", c.Governor)
	}
	if len(c.Profiles) == 0 {
		t.Error("no default profiles")
	}
	for _, p := range c.Profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("default profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	c := Cohort{Devices: 12, Seed: 3, Session: 30 * sim.Second, Governor: ccdem.GovernorSection}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Devices != 12 || got.Seed != 3 || got.Session != 30*sim.Second {
		t.Errorf("round trip changed scalars: %+v", got)
	}
	if got.Governor != ccdem.GovernorSection {
		t.Errorf("round trip governor = %v", got.Governor)
	}
	if len(got.Profiles) != len(DefaultProfiles()) {
		t.Errorf("round trip profiles = %d, want the defaulted %d", len(got.Profiles), len(DefaultProfiles()))
	}
}

// badSpecs are cohort documents ReadSpec must reject; FuzzReadSpec seeds
// its corpus with them.
var badSpecs = []string{
	`{"version":99,"devices":1,"profiles":[]}`,
	`{"version":1,"devices":1,"governor":"warp-speed","profiles":[]}`,
	`{"version":1,"devices":1,"bogus_field":true}`,
	`not json`,
	`{"version":1,"devices":1,"meter_samples":-5,"profiles":[]}`,
	`{"version":1,"devices":1,"session_s":1e10,"profiles":[]}`,
	`{"version":1,"devices":1,"profiles":[{"name":"p","weight":1,"touch_intensity":1e300,"apps":[{"name":"Facebook","weight":1}]}]}`,
	`{"version":1,"devices":1,"profiles":[{"name":"p","weight":1,"touch_intensity":1e-300,"apps":[{"name":"Facebook","weight":1}]}]}`,
	`{"version":1,"devices":1,"profiles":[{"name":"p","weight":1,"touch_intensity":1e-12,"apps":[{"name":"Facebook","weight":1}]}]}`,
	`{"version":1,"devices":1,"naive_pixels":true,"profiles":[]}`,
}

func TestSpecRejectsBadInput(t *testing.T) {
	for _, doc := range badSpecs {
		if _, err := ReadSpec(strings.NewReader(doc)); err == nil {
			t.Errorf("spec accepted: %s", doc)
		}
	}
}

// FuzzReadSpec: the cohort spec decoder never panics on hostile bytes,
// and every document it accepts re-encodes through WriteSpec and decodes
// back to an equal Cohort.
func FuzzReadSpec(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSpec(&buf, Cohort{Devices: 100, Seed: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, doc := range badSpecs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		c, err := ReadSpec(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSpec(&out, c); err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := ReadSpec(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("spec changed across WriteSpec/ReadSpec:\n got %+v\nwant %+v", back, c)
		}
	})
}
