package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"ccdem/internal/app"
	"ccdem/internal/sim"
)

// Scenario serialization: sessions as JSON documents, so usage profiles
// can be shared and replayed without recompiling (cmd/ccdem-scenario).
// Phases reference catalog apps by name or embed a custom workload.

type wireScenario struct {
	Version int         `json:"version"`
	Name    string      `json:"name"`
	Phases  []wirePhase `json:"phases"`
}

type wirePhase struct {
	// App names a catalog workload; Workload embeds a custom one.
	// Exactly one must be set.
	App        string          `json:"app,omitempty"`
	Workload   json.RawMessage `json:"workload,omitempty"`
	DurationMS int64           `json:"duration_ms"`
	Seed       int64           `json:"seed,omitempty"`
}

const scenarioWireVersion = 1

// WriteJSON serializes the scenario. Phases whose app exists in the
// catalog are written by name; others are embedded in full.
func (sc Scenario) WriteJSON(w io.Writer) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	ws := wireScenario{Version: scenarioWireVersion, Name: sc.Name}
	for _, ph := range sc.Phases {
		wp := wirePhase{DurationMS: int64(ph.Duration / sim.Millisecond), Seed: ph.Seed}
		if cat, ok := app.ByName(ph.App.Name); ok && cat == ph.App {
			wp.App = ph.App.Name
		} else {
			var buf bytes.Buffer
			if err := app.WriteParams(&buf, []app.Params{ph.App}); err != nil {
				return err
			}
			// WriteParams emits an array; embed its single element.
			var arr []json.RawMessage
			if err := json.Unmarshal(buf.Bytes(), &arr); err != nil || len(arr) != 1 {
				return fmt.Errorf("scenario: embedding workload: %v", err)
			}
			wp.Workload = arr[0]
		}
		ws.Phases = append(ws.Phases, wp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ws)
}

// ReadScenario parses a scenario document, resolving catalog names and
// validating embedded workloads.
func ReadScenario(r io.Reader) (Scenario, error) {
	var ws wireScenario
	if err := json.NewDecoder(r).Decode(&ws); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parsing: %w", err)
	}
	if ws.Version != scenarioWireVersion {
		return Scenario{}, fmt.Errorf("scenario: unsupported version %d", ws.Version)
	}
	sc := Scenario{Name: ws.Name}
	for i, wp := range ws.Phases {
		if lim := int64(math.MaxInt64 / sim.Millisecond); wp.DurationMS > lim || wp.DurationMS < -lim {
			return Scenario{}, fmt.Errorf("scenario: phase %d: duration_ms %d out of range", i, wp.DurationMS)
		}
		ph := Phase{Duration: sim.Time(wp.DurationMS) * sim.Millisecond, Seed: wp.Seed}
		switch {
		case wp.App != "" && wp.Workload != nil:
			return Scenario{}, fmt.Errorf("scenario: phase %d sets both app and workload", i)
		case wp.App != "":
			p, ok := app.ByName(wp.App)
			if !ok {
				return Scenario{}, fmt.Errorf("scenario: phase %d: app %q not in catalog", i, wp.App)
			}
			ph.App = p
		case wp.Workload != nil:
			arrJSON := append([]byte("["), wp.Workload...)
			arrJSON = append(arrJSON, ']')
			ps, err := app.ReadParams(bytes.NewReader(arrJSON))
			if err != nil {
				return Scenario{}, fmt.Errorf("scenario: phase %d workload: %w", i, err)
			}
			ph.App = ps[0]
		default:
			return Scenario{}, fmt.Errorf("scenario: phase %d names no workload", i)
		}
		sc.Phases = append(sc.Phases, ph)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}
