package main

import (
	"strings"
	"testing"

	"ccdem/internal/experiments"
	"ccdem/internal/sim"
)

// TestRunRejectsBadInput: flag mistakes produce friendly errors instead of
// panics deep inside the metering grid or the Monkey generator.
func TestRunRejectsBadInput(t *testing.T) {
	good := experiments.Options{Duration: 5 * sim.Second, Seed: 1, MeterSamples: 1024}
	cases := []struct {
		name   string
		exp    string
		opts   experiments.Options
		faults float64
	}{
		{"unknown experiment", "fig99", good, 1},
		{"zero duration", "fig6", experiments.Options{Seed: 1, MeterSamples: 1024}, 1},
		{"negative duration", "fig6", experiments.Options{Duration: -sim.Second, MeterSamples: 1024}, 1},
		{"zero samples", "fig6", experiments.Options{Duration: 5 * sim.Second}, 1},
		{"negative samples", "fig6", experiments.Options{Duration: 5 * sim.Second, MeterSamples: -3}, 1},
		{"negative fault scale", "chaos", good, -0.5},
	}
	for _, tc := range cases {
		if err := run(tc.exp, tc.opts, tc.faults, "", ""); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRunUnknownExperimentNamesIt(t *testing.T) {
	err := run("figonehundred", experiments.Options{Duration: sim.Second, MeterSamples: 64}, 1, "", "")
	if err == nil || !strings.Contains(err.Error(), "figonehundred") {
		t.Errorf("error does not name the experiment: %v", err)
	}
}
