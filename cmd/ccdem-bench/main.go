// Command ccdem-bench is the benchmark-regression gate for the simulation
// kernel's hot path. It runs (or reads) the pinned benchmark suite,
// aggregates repeated runs into medians, and compares them against the
// committed baseline in results/bench_baseline.json:
//
//   - allocs/op growth over baseline always fails (the steady-state frame
//     path is contractually allocation-free);
//   - ns/op growth beyond -threshold fails, unless -warn-time downgrades
//     time regressions to warnings (for shared CI runners whose timings
//     are not comparable to the baseline host).
//
// Examples:
//
//	ccdem-bench                            # run suite, gate against baseline
//	ccdem-bench -count 5 -benchtime 200ms  # CI settings
//	ccdem-bench -update                    # refresh the committed baseline
//	go test -bench . -benchmem ./... | ccdem-bench -input -
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"ccdem/internal/buildinfo"
	"ccdem/internal/perfgate"
)

// suiteRegex pins the gated benchmarks: the hot-path kernels (grid sample,
// fill, meter observe), the tile pipeline against its naive oracle
// (compose and compare, whose naive rows double as the comparison
// baseline), the meter's delta compare on a video frame and on a feed
// memo view, the palette representation against plain buffers (blit rows),
// the memo snapshot encoder over raw and compressed sources, the
// video frame as per-band fills and as one binned batch, the feed
// scroll step in the index domain and as raw rows, the
// event engine (cold-start and steady-state), the
// whole-device paths (per-op setup and zero-alloc steady state), and the
// fleet campaign path (streamed throughput and memory footprint —
// single-op cohorts, cheap enough to gate). Heavier figure-regeneration
// benchmarks are deliberately excluded — they are too slow for a
// -benchtime 200ms gate.
const suiteRegex = `^(BenchmarkGridSample9K|BenchmarkFillSprite|` +
	`BenchmarkMeterObserve9K|BenchmarkTileCompare|BenchmarkTileCompose|BenchmarkMeterDelta|` +
	`BenchmarkPaletteBlit|BenchmarkPaletteSnapshot|BenchmarkPaletteFill|BenchmarkPaletteScroll|` +
	`BenchmarkEngineScheduleAndRun|BenchmarkEngineSteadyState|` +
	`BenchmarkDeviceSimulation|BenchmarkDeviceSteadyState|` +
	`BenchmarkFleetThroughput|BenchmarkCohortMemory)$`

// suitePackages lists the packages holding the pinned benchmarks.
var suitePackages = []string{
	".",
	"./internal/framebuffer",
	"./internal/core",
	"./internal/sim",
	"./internal/surface",
}

func main() {
	var (
		baseline  = flag.String("baseline", "results/bench_baseline.json", "baseline JSON path")
		input     = flag.String("input", "", "read bench output from this file ('-' = stdin) instead of running go test")
		update    = flag.Bool("update", false, "write the measured results back to the baseline instead of gating")
		threshold = flag.Float64("threshold", 0.10, "allowed fractional ns/op growth before failing")
		warnTime  = flag.Bool("warn-time", false, "downgrade time regressions to warnings (alloc growth still fails)")
		report    = flag.String("report", "", "also write the report to this file")
		count     = flag.Int("count", 3, "benchmark repetitions (median is gated)")
		benchtime = flag.String("benchtime", "200ms", "go test -benchtime per benchmark")
	)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "ccdem-bench")
		return
	}
	if err := run(*baseline, *input, *update, *threshold, *warnTime, *report, *count, *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "ccdem-bench:", err)
		os.Exit(1)
	}
}

func run(baselinePath, input string, update bool, threshold float64, warnTime bool, reportPath string, count int, benchtime string) error {
	var raw io.Reader
	switch input {
	case "-":
		raw = os.Stdin
	case "":
		out, err := runSuite(count, benchtime)
		if err != nil {
			return err
		}
		raw = bytes.NewReader(out)
	default:
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		raw = f
	}
	results, err := perfgate.Parse(raw)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results found")
	}

	if update {
		base, err := perfgate.LoadBaseline(baselinePath)
		if os.IsNotExist(err) {
			base = &perfgate.Baseline{}
		} else if err != nil {
			return err
		}
		base.Note = fmt.Sprintf("pinned suite, medians of -count %d -benchtime %s runs; refresh with `make perfgate-update`", count, benchtime)
		base.Update(results)
		if err := base.Save(baselinePath); err != nil {
			return err
		}
		fmt.Printf("updated %s with %d benchmark(s)\n", baselinePath, len(results))
		return nil
	}

	base, err := perfgate.LoadBaseline(baselinePath)
	if err != nil {
		return fmt.Errorf("load baseline (run with -update to create it): %w", err)
	}
	rep := perfgate.Compare(base, results, perfgate.Options{
		Threshold:    threshold,
		WarnTimeOnly: warnTime,
	})
	if err := rep.Write(os.Stdout); err != nil {
		return err
	}
	if reportPath != "" {
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if rep.Failed() {
		return fmt.Errorf("benchmark regression gate failed")
	}
	return nil
}

// runSuite executes the pinned benchmarks via go test, echoing output to
// stderr as it arrives so long runs show progress.
func runSuite(count int, benchtime string) ([]byte, error) {
	args := []string{
		"test", "-run", "^$", "-bench", suiteRegex, "-benchmem",
		"-count", fmt.Sprint(count), "-benchtime", benchtime,
	}
	args = append(args, suitePackages...)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %v: %w", args, err)
	}
	return out.Bytes(), nil
}
