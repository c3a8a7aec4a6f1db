package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"ccdem"
	"ccdem/internal/sim"
)

// Cohort specification files: fleet studies as JSON documents, so user
// populations can be versioned and replayed without recompiling
// (cmd/ccdem-fleet -spec).

type wireSpec struct {
	Version      int           `json:"version"`
	Devices      int           `json:"devices"`
	Seed         int64         `json:"seed,omitempty"`
	SessionS     float64       `json:"session_s,omitempty"`
	Governor     string        `json:"governor,omitempty"`
	MeterSamples int           `json:"meter_samples,omitempty"`
	Profiles     []wireProfile `json:"profiles"`
}

type wireProfile struct {
	Name           string         `json:"name"`
	Weight         float64        `json:"weight"`
	TouchIntensity float64        `json:"touch_intensity,omitempty"`
	SessionJitter  float64        `json:"session_jitter,omitempty"`
	Apps           []wireAppShare `json:"apps"`
}

type wireAppShare struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

const specWireVersion = 1

// governorNames maps spec-file governor names to modes; the managed
// configuration of a fleet is never the baseline, so "baseline" is
// deliberately absent.
var governorNames = map[string]ccdem.GovernorMode{
	"section":       ccdem.GovernorSection,
	"section+boost": ccdem.GovernorSectionBoost,
	"naive":         ccdem.GovernorNaive,
	"e3-framerate":  ccdem.GovernorE3,
	"idle-timeout":  ccdem.GovernorIdleTimeout,
}

// ParseGovernor resolves a spec-file governor name ("" selects the
// paper's full system, section+boost).
func ParseGovernor(name string) (ccdem.GovernorMode, error) {
	if name == "" {
		return ccdem.GovernorSectionBoost, nil
	}
	mode, ok := governorNames[name]
	if !ok {
		return 0, fmt.Errorf("fleet: unknown governor %q", name)
	}
	return mode, nil
}

// ReadSpec parses a cohort specification document. Omitted fields keep
// the Cohort defaults; the result is validated.
func ReadSpec(r io.Reader) (Cohort, error) {
	var ws wireSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ws); err != nil {
		return Cohort{}, fmt.Errorf("fleet: parsing spec: %w", err)
	}
	if ws.Version != specWireVersion {
		return Cohort{}, fmt.Errorf("fleet: unsupported spec version %d", ws.Version)
	}
	mode, err := ParseGovernor(ws.Governor)
	if err != nil {
		return Cohort{}, err
	}
	c := Cohort{
		Devices:      ws.Devices,
		Seed:         ws.Seed,
		Session:      sim.FromSeconds(ws.SessionS),
		Governor:     mode,
		MeterSamples: ws.MeterSamples,
	}
	for _, wp := range ws.Profiles {
		p := Profile{
			Name:           wp.Name,
			Weight:         wp.Weight,
			TouchIntensity: wp.TouchIntensity,
			SessionJitter:  wp.SessionJitter,
		}
		for _, wa := range wp.Apps {
			p.Apps = append(p.Apps, AppShare{Name: wa.Name, Weight: wa.Weight})
		}
		c.Profiles = append(c.Profiles, p)
	}
	c.applyDefaults()
	if err := c.Validate(); err != nil {
		return Cohort{}, err
	}
	return c, nil
}

// WriteSpec serializes the cohort (defaults applied) as a spec document,
// the template cmd/ccdem-fleet -write-spec emits.
func WriteSpec(w io.Writer, c Cohort) error {
	c.applyDefaults()
	if err := c.Validate(); err != nil {
		return err
	}
	ws := wireSpec{
		Version:      specWireVersion,
		Devices:      c.Devices,
		Seed:         c.Seed,
		SessionS:     c.Session.Seconds(),
		Governor:     c.Governor.String(),
		MeterSamples: c.MeterSamples,
	}
	for _, p := range c.Profiles {
		wp := wireProfile{
			Name:           p.Name,
			Weight:         p.Weight,
			TouchIntensity: p.TouchIntensity,
			SessionJitter:  p.SessionJitter,
		}
		for _, a := range p.Apps {
			wp.Apps = append(wp.Apps, wireAppShare{Name: a.Name, Weight: a.Weight})
		}
		ws.Profiles = append(ws.Profiles, wp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ws)
}
