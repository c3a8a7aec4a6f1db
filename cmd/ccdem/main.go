// Command ccdem regenerates the figures and tables of "Content-centric
// Display Energy Management for Mobile Devices" (DAC 2014) on the
// simulated device.
//
// Usage:
//
//	ccdem [flags] <experiment>
//
// where <experiment> is one of: fig2, fig3, fig6, fig7, fig8, fig9,
// fig10, fig11, table1, summary, chaos, all. "summary" prints the
// conclusion's headline numbers; "chaos" measures display quality under
// injected faults (scaled by -faults), hardened vs unhardened; "all" runs
// everything (fig9–11, table1 and summary share one measurement
// campaign).
//
// Flags:
//
//	-duration N    seconds of virtual time per run (default 180, the paper's ≈3 min)
//	-seed N        Monkey script seed (default 1)
//	-samples N     governor comparison-grid pixels (default 9216)
//	-workers N     concurrent app runs in campaign experiments (default all cores)
//	-trace-out F   write a Chrome trace-event JSON (Perfetto-loadable) of every run
//	-metrics       dump the merged metrics registry to stderr after the experiment
//	-pprof F       write a CPU profile of the whole invocation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"

	"ccdem/internal/buildinfo"
	"ccdem/internal/experiments"
	"ccdem/internal/fault"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
)

func main() {
	duration := flag.Int("duration", 180, "seconds of virtual time per run")
	seed := flag.Int64("seed", 1, "Monkey script seed")
	samples := flag.Int("samples", 9216, "governor comparison-grid pixels")
	workers := flag.Int("workers", 0, "concurrent app runs in campaign experiments (0 = all cores); results are identical at any value")
	faults := flag.Float64("faults", 1, "fault intensity for the chaos experiment: scales the default fault plan (0 disables, 1 = reference mix)")
	csvPath := flag.String("csv", "", "also write the experiment's data rows as CSV to this file (table experiments only)")
	svgDir := flag.String("svg", "", "also write the experiment's figures as SVG files into this directory")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of every run to this file (open in Perfetto or chrome://tracing)")
	metrics := flag.Bool("metrics", false, "dump the merged metrics registry to stderr after the experiment")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the whole invocation to this file")
	flag.Usage = usage
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "ccdem")
		return
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccdem: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccdem: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	opts := experiments.Options{
		Duration:     sim.Time(*duration) * sim.Second,
		Seed:         *seed,
		MeterSamples: *samples,
		Parallelism:  *workers,
	}
	if *traceOut != "" || *metrics {
		opts.Obs = obs.NewCollector(0)
	}
	if err := run(flag.Arg(0), opts, *faults, *csvPath, *svgDir); err != nil {
		fmt.Fprintf(os.Stderr, "ccdem: %v\n", err)
		os.Exit(1)
	}
	if err := writeObs(opts.Obs, *traceOut, *metrics); err != nil {
		fmt.Fprintf(os.Stderr, "ccdem: %v\n", err)
		os.Exit(1)
	}
}

// writeObs exports the collected observability: the Perfetto trace to
// traceOut and, with metrics set, the merged registry dump to stderr.
func writeObs(c *obs.Collector, traceOut string, metrics bool) error {
	if c == nil {
		return nil
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := c.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d tracks written to %s (open in https://ui.perfetto.dev)\n",
			len(c.Tracks()), traceOut)
	}
	if metrics {
		fmt.Fprintln(os.Stderr, "\nmerged metrics:")
		if err := c.WriteMetrics(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ccdem [flags] <experiment>

experiments:
  fig2     frame-rate traces, Facebook vs Jelly Splash (baseline)
  fig3     meaningful vs redundant frame rate, 30 apps
  fig6     metering accuracy & cost vs compared pixels
  fig7     content/refresh traces under section control and +boost
  fig8     power-save traces, Facebook and Jelly Splash
  fig9     per-app power saving (full campaign)
  fig10    estimated vs actual content rate (full campaign)
  fig11    display quality per app (full campaign)
  table1   summary table (full campaign)
  summary  conclusion headline numbers (full campaign)
  compare  extension: this scheme vs E3-style frame-rate adaptation [16]
  frontier extension: quality-power frontier vs OLED DVS [3,4,15]
  scaling  extension: the scheme on 90 Hz / 120 Hz LTPO panels
  chaos    extension: display quality under injected faults, hardened vs unhardened (-faults scales intensity)
  validate qualitative shape checks against the paper (exit 1 on failure)
  all      everything above except compare, chaos and validate

flags:
`)
	flag.PrintDefaults()
}

// csvWriter is implemented by the table-shaped experiment results.
type csvWriter interface {
	WriteCSV(io.Writer) error
}

// saveCSV writes r's data rows to path when both are set.
func saveCSV(path string, r csvWriter) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSVG writes one figure file into dir when set.
func saveSVG(dir, filename string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, filename))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(name string, opts experiments.Options, faults float64, csvPath, svgDir string) error {
	if opts.Duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", opts.Duration)
	}
	if opts.MeterSamples <= 0 {
		return fmt.Errorf("-samples must be positive, got %d", opts.MeterSamples)
	}
	if faults < 0 {
		return fmt.Errorf("-faults must be non-negative, got %g", faults)
	}
	plan := fault.DefaultPlan().Scale(faults)
	opts.FaultPlan = &plan
	needSuite := map[string]bool{
		"fig9": true, "fig10": true, "fig11": true, "table1": true, "summary": true, "all": true,
	}
	var suite *experiments.Suite
	if needSuite[name] {
		fmt.Fprintf(os.Stderr, "running 30-app campaign (3 configurations × %v each)...\n", opts.Duration)
		var err error
		suite, err = experiments.RunSuite(opts)
		if err != nil {
			return err
		}
	}
	emit := func(s string) { fmt.Println(s) }
	switch name {
	case "fig2":
		r, err := experiments.Fig2(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveSVG(svgDir, "fig2.svg", r.WriteSVG); err != nil {
			return err
		}
	case "fig3":
		r, err := experiments.Fig3(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveCSV(csvPath, r); err != nil {
			return err
		}
		if err := saveSVG(svgDir, "fig3.svg", r.WriteSVG); err != nil {
			return err
		}
	case "fig6":
		r, err := experiments.Fig6(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveCSV(csvPath, r); err != nil {
			return err
		}
		if err := saveSVG(svgDir, "fig6.svg", r.WriteSVG); err != nil {
			return err
		}
	case "fig7":
		r, err := experiments.Fig7(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		for i := range r.Traces {
			i := i
			if err := saveSVG(svgDir, fmt.Sprintf("fig7-%c.svg", 'a'+i), func(w io.Writer) error {
				return r.WriteSVG(w, i)
			}); err != nil {
				return err
			}
		}
	case "fig8":
		r, err := experiments.Fig8(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveSVG(svgDir, "fig8.svg", r.WriteSVG); err != nil {
			return err
		}
	case "fig9":
		emit(suite.Fig9())
		if err := saveCSV(csvPath, suite); err != nil {
			return err
		}
		if err := saveSVG(svgDir, "fig9.svg", suite.WriteFig9SVG); err != nil {
			return err
		}
	case "fig10":
		emit(suite.Fig10())
	case "fig11":
		emit(suite.Fig11())
		if err := saveSVG(svgDir, "fig11.svg", suite.WriteFig11SVG); err != nil {
			return err
		}
	case "table1":
		emit(suite.Table1String())
	case "scaling":
		r, err := experiments.Scaling(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveCSV(csvPath, r); err != nil {
			return err
		}
	case "frontier":
		r, err := experiments.Frontier(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveCSV(csvPath, r); err != nil {
			return err
		}
	case "validate":
		r, err := experiments.Validate(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if !r.Pass() {
			os.Exit(1)
		}
	case "compare":
		fmt.Fprintf(os.Stderr, "running scheme comparison (30 apps × 4 configurations × %v)...\n", opts.Duration)
		r, err := experiments.CompareSchemes(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveCSV(csvPath, r); err != nil {
			return err
		}
	case "chaos":
		fmt.Fprintf(os.Stderr, "running chaos campaign (30 apps × 3 configurations × %v, fault scale %g)...\n",
			opts.Duration, faults)
		r, err := experiments.Chaos(opts)
		if err != nil {
			return err
		}
		emit(r.String())
		if err := saveCSV(csvPath, r); err != nil {
			return err
		}
	case "summary":
		emitSummary(suite)
	case "all":
		fig2, err := experiments.Fig2(opts)
		if err != nil {
			return err
		}
		emit(fig2.String())
		if err := saveSVG(svgDir, "fig2.svg", fig2.WriteSVG); err != nil {
			return err
		}
		fig3, err := experiments.Fig3(opts)
		if err != nil {
			return err
		}
		emit(fig3.String())
		if err := saveSVG(svgDir, "fig3.svg", fig3.WriteSVG); err != nil {
			return err
		}
		fig6, err := experiments.Fig6(opts)
		if err != nil {
			return err
		}
		emit(fig6.String())
		if err := saveSVG(svgDir, "fig6.svg", fig6.WriteSVG); err != nil {
			return err
		}
		fig7, err := experiments.Fig7(opts)
		if err != nil {
			return err
		}
		emit(fig7.String())
		for i := range fig7.Traces {
			i := i
			if err := saveSVG(svgDir, fmt.Sprintf("fig7-%c.svg", 'a'+i), func(w io.Writer) error {
				return fig7.WriteSVG(w, i)
			}); err != nil {
				return err
			}
		}
		fig8, err := experiments.Fig8(opts)
		if err != nil {
			return err
		}
		emit(fig8.String())
		if err := saveSVG(svgDir, "fig8.svg", fig8.WriteSVG); err != nil {
			return err
		}
		emit(suite.Fig9())
		emit(suite.Fig10())
		emit(suite.Fig11())
		emit(suite.Table1String())
		emitSummary(suite)
		if err := saveSVG(svgDir, "fig9.svg", suite.WriteFig9SVG); err != nil {
			return err
		}
		if err := saveSVG(svgDir, "fig11.svg", suite.WriteFig11SVG); err != nil {
			return err
		}
		if err := saveCSV(csvPath, suite); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func emitSummary(s *experiments.Suite) {
	saved, quality := s.OverallSummary()
	fmt.Printf("Conclusion summary (all 30 apps, section + touch boosting):\n")
	fmt.Printf("  mean power reduction: %.0f mW (paper: ≈230 mW)\n", saved)
	fmt.Printf("  mean display quality: %.1f%% (paper: ≈95%%)\n", quality)
}
