// Golden-trace equivalence tests: the full decision sequence of a governed
// device — every governor decision, every refresh-rate transition, and the
// end-of-run totals — is rendered to text and compared byte-for-byte
// against committed golden files in testdata/golden/.
//
// Each trace is produced under fleet.Pool at 1, 2 and 8 workers; all three
// must be identical. That pins the determinism contract the performance
// work relies on: event pooling, scratch buffers and ring buffers may make
// the simulation faster, but never change a single decision, and worker
// scheduling never leaks into results.
//
// TestGoldenDigests extends the pin from three apps to the whole
// reproduction: one SHA-256 per catalog app and managed configuration,
// so a change that moves the power model, the governor or an app model —
// and with it the production pipeline and its oracle alike — cannot pass
// silently.
//
// TestGoldenFleetAggregate pins the fleet layer on top: one default-profile
// cohort's aggregate JSON, produced in-process at two worker counts and as
// a 2-way sharded campaign merged centrally.
//
// After an *intentional* behaviour change, refresh the files with:
//
//	go test -run 'TestGolden(Traces|Digests|FleetAggregate)' -update-golden .
package ccdem_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/core"
	"ccdem/internal/fleet"
	"ccdem/internal/input"
	"ccdem/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden files with current traces")

// goldenApps are the three representative workloads: a touch-driven feed
// app, a 60 fps game, and autonomous video — the three content classes the
// paper's taxonomy distinguishes (§2.2).
var goldenApps = []struct {
	name string
	slug string
	seed int64
}{
	{"Facebook", "facebook", 11},
	{"Jelly Splash", "jellysplash", 12},
	{"MX Player", "mxplayer", 13},
}

const goldenDuration = 20 * sim.Second

// goldenTrace runs one device governed by section+boost on the named app
// and renders its complete decision history as text, using the default
// (tile-tracked, palette-compressed) pixel pipeline.
func goldenTrace(appName string, seed int64) (string, error) {
	return goldenTraceCfg(appName, seed, ccdem.GovernorSectionBoost, false)
}

// goldenTraceCfg is goldenTrace with the governor and the pixel pipeline
// selectable: naivePixels true runs the brute-force oracle path.
func goldenTraceCfg(appName string, seed int64, mode ccdem.GovernorMode, naivePixels bool) (string, error) {
	p, ok := app.ByName(appName)
	if !ok {
		return "", fmt.Errorf("unknown app %q", appName)
	}
	dev, err := ccdem.NewDevice(ccdem.Config{
		Governor:    mode,
		NaivePixels: naivePixels,
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	dev.Governor().OnDecision(func(d core.Decision) {
		fmt.Fprintf(&sb, "decision t=%d content=%.6f rate=%d boosted=%v\n",
			int64(d.T), d.ContentRate, d.RateHz, d.Boosted)
	})
	dev.Panel().OnRateChange(func(t sim.Time, oldHz, newHz int) {
		fmt.Fprintf(&sb, "rate t=%d %d->%d\n", int64(t), oldHz, newHz)
	})
	if _, err := dev.InstallApp(p); err != nil {
		return "", err
	}
	mk, err := input.NewMonkey(seed, input.DefaultMonkeyConfig())
	if err != nil {
		return "", err
	}
	dev.PlayScript(mk.Script(goldenDuration, 720, 1280))
	dev.Run(goldenDuration)

	frames, content := dev.Meter().Totals()
	s := dev.Stats()
	fmt.Fprintf(&sb, "totals frames=%d content=%d redundant=%d\n",
		frames, content, dev.Meter().TotalRedundant())
	fmt.Fprintf(&sb, "totals refreshes=%d switches=%d boosts=%d\n",
		dev.Panel().Refreshes(), s.RefreshSwitches, s.BoostCount)
	fmt.Fprintf(&sb, "totals meanrefresh=%.6f energy_mj=%.6f quality=%.6f\n",
		s.MeanRefreshHz, s.EnergyMJ, s.DisplayQuality)
	return sb.String(), nil
}

// runGoldenFleet produces all three app traces under a fleet.Pool of the
// given width; result order is index-addressed, so it is deterministic no
// matter how tasks are scheduled.
func runGoldenFleet(t *testing.T, workers int) []string {
	t.Helper()
	traces := make([]string, len(goldenApps))
	err := fleet.Pool{Workers: workers}.Run(context.Background(), len(goldenApps),
		func(_ context.Context, i int) error {
			tr, err := goldenTrace(goldenApps[i].name, goldenApps[i].seed)
			if err != nil {
				return fmt.Errorf("%s: %w", goldenApps[i].name, err)
			}
			traces[i] = tr
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// firstLineDiff reports the first line where a and b differ, for readable
// failures.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(al), len(bl))
}

func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces need full-length runs")
	}
	sequential := runGoldenFleet(t, 1)

	// Bit-identical at every worker count: parallelism must not perturb a
	// single decision.
	for _, workers := range []int{2, 8} {
		parallel := runGoldenFleet(t, workers)
		for i, a := range goldenApps {
			if parallel[i] != sequential[i] {
				t.Errorf("%s: trace at %d workers differs from sequential\n%s",
					a.name, workers, firstLineDiff(parallel[i], sequential[i]))
			}
		}
	}

	for i, a := range goldenApps {
		path := filepath.Join("testdata", "golden", a.slug+".trace")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(sequential[i]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", a.name, err)
		}
		if sequential[i] != string(want) {
			t.Errorf("%s: trace differs from %s (decision stream changed; "+
				"if intentional, refresh with -update-golden)\n%s",
				a.name, path, firstLineDiff(sequential[i], string(want)))
		}
	}
}

// TestGoldenTracesTileVsNaive runs every golden app under both pixel
// pipelines — tile tracking with direct scanout, palette tiles and the
// state memo (the default) and the brute-force oracle (NaivePixels) — and
// diffs the decision-event streams byte for byte. The tile path replaces
// pixel work with generation tracking and compressed tiles, so this is
// the end-to-end proof that no governor decision, rate transition or
// lifetime total moved. The
// committed golden files additionally pin both paths to the pre-tile
// decision history (TestGoldenTraces runs the default path against them).
func TestGoldenTracesTileVsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces need full-length runs")
	}
	for _, a := range goldenApps {
		tiles, err := goldenTraceCfg(a.name, a.seed, ccdem.GovernorSectionBoost, false)
		if err != nil {
			t.Fatalf("%s (tiles): %v", a.name, err)
		}
		naive, err := goldenTraceCfg(a.name, a.seed, ccdem.GovernorSectionBoost, true)
		if err != nil {
			t.Fatalf("%s (naive): %v", a.name, err)
		}
		if tiles != naive {
			t.Errorf("%s: tile-path trace differs from naive oracle\n%s",
				a.name, firstLineDiff(tiles, naive))
		}
	}
}

// TestGoldenDigests runs every catalog app under section and
// section+boost for goldenDuration, each with a fixed per-app seed, under
// fleet.Pool, and compares the SHA-256 of each decision stream with
// testdata/golden/digests.txt. The three full traces above localize a
// change; the digests make sure none goes unnoticed in the other apps.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digests need full-length runs")
	}
	modes := []ccdem.GovernorMode{ccdem.GovernorSection, ccdem.GovernorSectionBoost}
	apps := app.Catalog()
	lines := make([]string, len(apps)*len(modes))
	err := fleet.Pool{}.Run(context.Background(), len(lines), func(_ context.Context, i int) error {
		name, mode := apps[i/len(modes)].Name, modes[i%len(modes)]
		seed := int64(100 + i/len(modes))
		tr, err := goldenTraceCfg(name, seed, mode, false)
		if err != nil {
			return fmt.Errorf("%s [%s]: %w", name, mode, err)
		}
		lines[i] = fmt.Sprintf("%s\t%s\t%d\t%x", name, mode, seed, sha256.Sum256([]byte(tr)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden", "digests.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d digests, the catalog yields %d (refresh with -update-golden)", path, len(wantLines), len(lines))
	}
	for i, line := range lines {
		if line != wantLines[i] {
			t.Errorf("decision stream changed (if intentional, refresh with -update-golden):\n  got:  %s\n  want: %s", line, wantLines[i])
		}
	}
}

// goldenCohort is the pinned fleet campaign: the default profile mix,
// eight devices, 20 s nominal sessions.
var goldenCohort = fleet.Cohort{Devices: 8, Seed: 12345, Session: 20 * sim.Second, Stream: true}

// TestGoldenFleetAggregate runs goldenCohort at 1 and 4 workers and as a
// 2-way RunShard → wire codec → MergeShards campaign, and requires all
// three aggregate documents to equal testdata/golden/fleet_default.json
// byte for byte. The relative proofs (tile vs naive, sharded vs direct)
// cannot catch a change that moves every path together; this pin can.
func TestGoldenFleetAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden fleet aggregate needs full-length sessions")
	}
	encode := func(res *fleet.Result) string {
		t.Helper()
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	type run struct{ name, doc string }
	var runs []run
	for _, workers := range []int{1, 4} {
		res, err := goldenCohort.Run(context.Background(), fleet.Pool{Workers: workers})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		runs = append(runs, run{fmt.Sprintf("%d workers", workers), encode(res)})
	}
	shards := make([]*fleet.Shard, 2)
	for i := range shards {
		c := goldenCohort
		c.ShardIndex, c.ShardCount = i, len(shards)
		s, err := c.RunShard(context.Background(), fleet.Pool{Workers: 1})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		var doc bytes.Buffer
		if err := s.Encode(&doc); err != nil {
			t.Fatalf("shard %d: encode: %v", i, err)
		}
		if shards[i], err = fleet.DecodeShard(&doc); err != nil {
			t.Fatalf("shard %d: decode: %v", i, err)
		}
	}
	merged, err := fleet.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"2 shards merged", encode(merged)})

	path := filepath.Join("testdata", "golden", "fleet_default.json")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(runs[0].doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	for _, r := range runs {
		if r.doc != string(want) {
			t.Errorf("%s: aggregate differs from %s (if intentional, refresh with -update-golden)\n%s",
				r.name, path, firstLineDiff(r.doc, string(want)))
		}
	}
}
