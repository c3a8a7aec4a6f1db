package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccdem/internal/obs"
)

// testConfig is a small healthy cohort; tests tweak the fields they probe.
func testConfig() runConfig {
	return runConfig{
		devices:  4,
		seed:     1,
		duration: 3,
		samples:  1024,
		format:   "json",
	}
}

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	errRun := fn()
	os.Stdout = old
	f.Close()
	if errRun != nil {
		t.Fatalf("run: %v", errRun)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunJSON(t *testing.T) {
	c := testConfig()
	c.workers = 2
	c.perDev = true
	out := capture(t, func() error { return run(c) })
	var doc struct {
		Devices   []json.RawMessage `json:"devices"`
		Aggregate struct {
			Devices     int     `json:"devices"`
			MeanSavedMW float64 `json:"mean_saved_mw"`
		} `json:"aggregate"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if doc.Aggregate.Devices != 4 || len(doc.Devices) != 4 {
		t.Errorf("devices = %d/%d, want 4", doc.Aggregate.Devices, len(doc.Devices))
	}
}

func TestRunCSV(t *testing.T) {
	c := testConfig()
	c.devices = 3
	c.mode = "section"
	c.format = "csv"
	out := capture(t, func() error { return run(c) })
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want header + 3 rows\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "device,profile,") {
		t.Errorf("missing header: %s", lines[0])
	}
}

func TestRunFaultyHardenedJSON(t *testing.T) {
	c := testConfig()
	c.faults = 1
	c.hardened = true
	c.perDev = true
	out := capture(t, func() error { return run(c) })
	if !strings.Contains(out, `"faults"`) {
		t.Errorf("faulted run reports no fault counters:\n%s", out)
	}
}

// TestRunMetricsPromExposition: -metrics-prom writes a parseable
// Prometheus exposition carrying the palette and memo counter families
// (counters gain the conventional _total suffix on export).
func TestRunMetricsPromExposition(t *testing.T) {
	c := testConfig()
	c.obs.metricsProm = filepath.Join(t.TempDir(), "fleet.prom")
	capture(t, func() error { return run(c) })
	f, err := os.Open(c.obs.metricsProm)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fams, err := obs.ParsePrometheus(f)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, want := range []string{
		"fb_palette_tiles_total",
		"fb_palette_promotions_total",
		"app_memo_hits_total",
		"app_memo_misses_total",
		"frames_total",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from exposition", want)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*runConfig)
	}{
		{"unknown mode", func(c *runConfig) { c.mode = "warp-speed" }},
		{"unknown format", func(c *runConfig) { c.format = "xml" }},
		{"missing spec file", func(c *runConfig) { c.specPath = "no-such-spec.json" }},
		{"zero devices", func(c *runConfig) { c.devices = 0 }},
		{"negative duration", func(c *runConfig) { c.duration = -3 }},
		{"zero samples", func(c *runConfig) { c.samples = 0 }},
		{"negative fault scale", func(c *runConfig) { c.faults = -1 }},
		{"negative task timeout", func(c *runConfig) { c.timeout = -time.Second }},
		{"shard with csv", func(c *runConfig) { c.shard = "0/2"; c.format = "csv" }},
		{"shard with per-device", func(c *runConfig) { c.shard = "0/2"; c.perDev = true }},
		{"shard and merge together", func(c *runConfig) { c.shard = "0/2"; c.merge = true; c.shardIn = []string{"x"} }},
		{"malformed shard position", func(c *runConfig) { c.shard = "two/four" }},
		{"shard index out of range", func(c *runConfig) { c.shard = "4/4" }},
		{"merge without files", func(c *runConfig) { c.merge = true }},
		{"merge with csv", func(c *runConfig) { c.merge = true; c.shardIn = []string{"x"}; c.format = "csv" }},
		{"merge missing file", func(c *runConfig) { c.merge = true; c.shardIn = []string{"no-such-shard.json"} }},
		{"stray arguments", func(c *runConfig) { c.shardIn = []string{"stray.json"} }},
	}
	for _, tc := range cases {
		c := testConfig()
		tc.mutate(&c)
		if err := run(c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestWriteSpecThenRun(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "cohort.json")
	c := testConfig()
	c.devices = 5
	c.seed = 9
	c.duration = 4
	c.writeTo = spec
	if err := run(c); err != nil {
		t.Fatalf("write-spec: %v", err)
	}
	c.writeTo = ""
	c.specPath = spec
	out := capture(t, func() error { return run(c) })
	if !strings.Contains(out, "\"aggregate\"") {
		t.Errorf("spec-driven run produced no aggregate:\n%s", out)
	}
}

// TestShardMergeMatchesDirect drives the CLI halves of a distributed
// run: N -shard invocations, one -merge-shards invocation, and requires
// the merged output to be byte-identical to the direct streaming run.
func TestShardMergeMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	base := testConfig()
	base.devices = 11
	base.seed = 5
	base.workers = 2

	const shards = 3
	var files []string
	for i := 0; i < shards; i++ {
		c := base
		c.shard = fmt.Sprintf("%d/%d", i, shards)
		doc := capture(t, func() error { return run(c) })
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	merge := base
	merge.merge = true
	merge.shardIn = files
	got := capture(t, func() error { return run(merge) })

	direct := base
	direct.stream = true
	want := capture(t, func() error { return run(direct) })
	if got != want {
		t.Errorf("merged shard output differs from direct streaming run:\n got: %s\nwant: %s", got, want)
	}
}
