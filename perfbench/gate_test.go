package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"slices"
	"testing"

	"ccdem/internal/fleet"
)

// runVariant runs a workload variant in-process, streamed, and returns
// its result bytes.
func runVariant(t *testing.T, w workload, variant int) []byte {
	t.Helper()
	p, err := pinFor(w.name, variant)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := w.spec(p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cohort, err := fleet.ReadSpec(bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	cohort.Stream = true
	res, err := cohort.Run(context.Background(), fleet.Pool{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorruptedResultFailsTheRun feeds the gate the pinned result of a
// svc-sharded variant and then a copy with one digit changed: the first
// passes, the second fails every device of its job and the command.
func TestCorruptedResultFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	w, _ := lookupWorkload("svc-sharded")
	good := runVariant(t, w, 0)
	b := &bench{w: w, stderr: io.Discard}
	rep, err := resultReport(good)
	if err != nil {
		t.Fatal(err)
	}
	b.checkCampaign(w, 0, rep)
	if len(b.problems) != 0 {
		t.Fatalf("the pinned result failed: %v", b.problems)
	}

	digit := regexp.MustCompile(`"mean_saved_mw": \d`)
	loc := digit.FindIndex(good)
	if loc == nil {
		t.Fatal("no mean_saved_mw in the result")
	}
	bad := bytes.Clone(good)
	bad[loc[1]-1] = '0' + (bad[loc[1]-1]-'0'+1)%10
	if rep, err = resultReport(bad); err != nil {
		t.Fatal(err)
	}
	b.checkCampaign(w, 0, rep)

	var out bytes.Buffer
	if code := b.report(&out, map[string]metric{}, map[string]float64{}); code == 0 {
		t.Error("a corrupted result exited 0")
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Attempted != 2*w.devices || last.Failed != w.devices {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	if got := last.Metrics["completed_frac"].Value; got != 0.5 {
		t.Errorf("completed_frac %v, want 0.5", got)
	}
}

func TestCountsMustRepeat(t *testing.T) {
	w, _ := lookupWorkload("games-video")
	p, _ := pinFor(w.name, 3)
	classes := map[string]int{}
	for i, n := range w.classMix() {
		classes[w.profiles[i].Name] = n
	}
	rep := func(frames, alloc float64) campaignReport {
		return campaignReport{Digest: p.Digest, Classes: classes,
			Counts: map[string]float64{"surface.frames": frames, "runtime.alloc_mb": alloc}}
	}
	var tl tally
	tl.checkCampaign(w, 3, rep(10, 1))
	tl.checkCampaign(w, 3, rep(10, 2)) // runtime counts may drift
	if len(tl.problems) != 0 {
		t.Fatalf("problems %v", tl.problems)
	}
	tl.checkCampaign(w, 3, rep(11, 1))
	if len(tl.problems) != 1 || tl.failed != w.devices {
		t.Errorf("a changed count gave problems %v, failed %d", tl.problems, tl.failed)
	}
}

// TestPinnedInputs checks every pinned fleet seed is balanced and that
// the spec carries it to the program unchanged.
func TestPinnedInputs(t *testing.T) {
	for _, w := range workloads {
		for v := 0; v < variants; v++ {
			p, err := pinFor(w.name, v)
			if err != nil {
				t.Fatal(err)
			}
			if !balanced(w, p.Seed) {
				t.Errorf("%s variant %d: seed %d is not balanced", w.name, v, p.Seed)
			}
			spec, err := w.spec(p.Seed)
			if err != nil {
				t.Fatal(err)
			}
			c, err := fleet.ReadSpec(bytes.NewReader(spec))
			if err != nil || c.Seed != p.Seed || c.Devices != w.devices {
				t.Errorf("%s variant %d: spec round trip %v %d %d", w.name, v, err, c.Seed, c.Devices)
			}
		}
	}
}

// TestSetFrom checks a run's variants: the strata split every variant by
// pinned cost, and a seed draws the same set every time, one variant per
// stratum, while other seeds draw other sets.
func TestSetFrom(t *testing.T) {
	for _, w := range workloads {
		seen := map[int]bool{}
		prevMax := 0.0
		for _, s := range strata(w.name) {
			for _, v := range s {
				if seen[v] || pins[w.name][v].Cost < prevMax {
					t.Fatalf("%s: strata %v are not a cost-sorted partition", w.name, strata(w.name))
				}
				seen[v] = true
			}
			for _, v := range s {
				prevMax = max(prevMax, pins[w.name][v].Cost)
			}
		}
		if len(seen) != variants {
			t.Fatalf("%s: strata cover %d variants", w.name, len(seen))
		}
		sets := map[string]bool{}
		for seed := int64(-3); seed < 20; seed++ {
			set := setFrom(w.name, seed)
			if fmt.Sprint(set) != fmt.Sprint(setFrom(w.name, seed)) {
				t.Fatalf("%s seed %d: two draws differ", w.name, seed)
			}
			for k, s := range strata(w.name) {
				if !slices.Contains(s, set[k]) {
					t.Fatalf("%s seed %d: set %v takes no variant from stratum %d", w.name, seed, set, k)
				}
			}
			sets[fmt.Sprint(set)] = true
		}
		if len(sets) < 10 {
			t.Errorf("%s: 23 seeds drew only %d distinct sets", w.name, len(sets))
		}
	}
}
