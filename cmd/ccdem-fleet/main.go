// Command ccdem-fleet runs a population of simulated devices in parallel
// and reports fleet-wide statistics: what the paper's scheme saves across
// many heterogeneous users rather than on one phone. Devices are expanded
// from declarative user profiles (app mixes over the 30-app catalog,
// session lengths, touch intensity), seeded deterministically from one
// fleet seed, and aggregated into power-saving percentiles, a
// display-quality CDF, and a battery-hours distribution.
//
// Results are bit-identical for a given (spec, seed) at any -workers
// value.
//
// Examples:
//
//	ccdem-fleet -devices 1000 -duration 60 -seed 42
//	ccdem-fleet -spec cohort.json -workers 8 -format csv > fleet.csv
//	ccdem-fleet -write-spec cohort.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"ccdem/internal/buildinfo"
	"ccdem/internal/fault"
	"ccdem/internal/fleet"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
)

// obsFlags bundles the observability surface of the command.
type obsFlags struct {
	traceOut    string // Chrome trace-event JSON output path
	traceSched  bool   // add the (non-deterministic) pool-scheduler track
	metrics     bool   // dump the merged fleet registry to stderr
	metricsProm string // write the merged registry as Prometheus exposition to this file
	sample      int    // keep observability for ~1 in N devices (0/1 = all)
}

// runConfig is the command's full flag surface, validated in run.
type runConfig struct {
	devices  int
	workers  int
	seed     int64
	duration int     // nominal session seconds per device
	mode     string  // managed governor configuration ("" = default)
	samples  int     // metering grid pixels
	faults   float64 // fault intensity: scales fault.DefaultPlan (0 = off)
	hardened bool    // enable governor fail-safe hardening
	naivePix bool    // force the brute-force pixel pipeline (the oracle)
	failFast bool    // abort the campaign on the first device failure
	timeout  time.Duration
	specPath string
	format   string // json | csv
	perDev   bool
	stream   bool // streaming aggregation: O(workers) memory
	batch    int  // task indices claimed per worker dispatch
	progress bool
	writeTo  string
	shard    string   // run one shard "i/n" and emit its wire document
	merge    bool     // merge shard documents instead of running devices
	shardIn  []string // positional args: shard files for -merge-shards
	obs      obsFlags
}

func main() {
	var c runConfig
	flag.IntVar(&c.devices, "devices", 100, "number of simulated devices")
	flag.IntVar(&c.workers, "workers", 0, "concurrent device runs (0 = all cores)")
	flag.Int64Var(&c.seed, "seed", 1, "fleet seed; device i derives its own seed from it")
	flag.IntVar(&c.duration, "duration", 60, "nominal session seconds per device (before per-profile jitter)")
	flag.StringVar(&c.mode, "mode", "", "managed configuration: section | section+boost | naive | e3-framerate | idle-timeout (default section+boost)")
	flag.IntVar(&c.samples, "samples", 9216, "metering grid pixels")
	flag.Float64Var(&c.faults, "faults", 0, "fault intensity injected into managed segments: scales the default fault plan (0 = off, 1 = reference chaos mix)")
	flag.BoolVar(&c.hardened, "hardened", false, "enable governor fail-safe hardening on managed segments")
	flag.BoolVar(&c.naivePix, "naive-pixels", false, "force the brute-force pixel pipeline (no tile tracking, palettes or state memo); results are byte-identical to the default path — this is the differential-testing oracle")
	flag.BoolVar(&c.failFast, "fail-fast", false, "abort the campaign on the first device failure instead of aggregating the survivors")
	flag.DurationVar(&c.timeout, "task-timeout", 0, "wall-clock budget per device simulation; a device exceeding it is reported failed (0 = unlimited)")
	flag.StringVar(&c.specPath, "spec", "", "cohort specification JSON (see -write-spec for a template); explicit flags override its scalars")
	flag.StringVar(&c.format, "format", "json", "output format: json | csv")
	flag.BoolVar(&c.perDev, "per-device", false, "include per-device rows in JSON output (CSV always emits them)")
	flag.BoolVar(&c.stream, "stream", false, "aggregate on the fly in O(workers) memory instead of retaining per-device rows; the aggregate is byte-identical, CSV rows are emitted in completion order, and JSON is aggregate-only (incompatible with -per-device)")
	flag.IntVar(&c.batch, "batch", 0, "device indices each worker claims per dispatch (0 = one at a time); larger batches amortize scheduling overhead on huge fleets")
	flag.BoolVar(&c.progress, "progress", false, "report completed devices on stderr")
	flag.StringVar(&c.writeTo, "write-spec", "", "write the default cohort as a spec template to this file and exit")
	flag.StringVar(&c.shard, "shard", "", "run only shard i/n of the cohort (e.g. 0/4) and write its accumulator shard document to stdout; merge the documents with -merge-shards")
	flag.BoolVar(&c.merge, "merge-shards", false, "merge the shard documents named as arguments (- for stdin) into the campaign result; byte-identical to the unsharded streaming run")

	flag.StringVar(&c.obs.traceOut, "trace-out", "", "write a Chrome trace-event JSON of every device's managed session to this file (open in Perfetto or chrome://tracing)")
	flag.BoolVar(&c.obs.traceSched, "trace-sched", false, "with -trace-out: add the pool scheduler's wall-clock task spans as an extra track (not reproducible across runs)")
	flag.BoolVar(&c.obs.metrics, "metrics", false, "dump the merged fleet metrics registry to stderr after the run")
	flag.StringVar(&c.obs.metricsProm, "metrics-prom", "", "write the merged fleet metrics registry to this file in Prometheus text exposition format (- for stderr); scrape-compatible with ccdem-obscheck -prom")
	flag.IntVar(&c.obs.sample, "obs-sample", 0, "with -trace-out/-metrics: keep observability for roughly 1 in N devices, chosen deterministically by name hash (0 or 1 = all); bounds observability memory on huge fleets")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the whole invocation to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "ccdem-fleet")
		return
	}
	c.shardIn = flag.Args()
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccdem-fleet: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccdem-fleet: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "ccdem-fleet: %v\n", err)
		os.Exit(1)
	}
}

// validate rejects flag mistakes at the command boundary, before they can
// panic deep inside the metering grid or Monkey generator.
func (c runConfig) validate() error {
	if c.devices <= 0 {
		return fmt.Errorf("-devices must be positive, got %d", c.devices)
	}
	if c.duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %d", c.duration)
	}
	if c.samples <= 0 {
		return fmt.Errorf("-samples must be positive, got %d", c.samples)
	}
	if c.faults < 0 {
		return fmt.Errorf("-faults must be non-negative, got %g", c.faults)
	}
	if c.timeout < 0 {
		return fmt.Errorf("-task-timeout must be non-negative, got %v", c.timeout)
	}
	if c.format != "json" && c.format != "csv" {
		return fmt.Errorf("unknown format %q (want json or csv)", c.format)
	}
	if c.stream && c.perDev {
		return fmt.Errorf("-stream does not retain per-device rows; drop -per-device or use -format csv for streamed rows")
	}
	if c.batch < 0 {
		return fmt.Errorf("-batch must be non-negative, got %d", c.batch)
	}
	if c.obs.sample < 0 {
		return fmt.Errorf("-obs-sample must be non-negative, got %d", c.obs.sample)
	}
	if c.shard != "" {
		if c.merge {
			return fmt.Errorf("-shard and -merge-shards are different halves of a distributed run; use one")
		}
		if c.format == "csv" || c.perDev {
			return fmt.Errorf("-shard emits an accumulator shard document, not rows; drop -format csv / -per-device")
		}
	}
	if c.merge {
		if len(c.shardIn) == 0 {
			return fmt.Errorf("-merge-shards needs shard document files as arguments")
		}
		if c.format == "csv" || c.perDev {
			return fmt.Errorf("shard documents carry no per-device rows; -merge-shards output is aggregate JSON only")
		}
	} else if len(c.shardIn) > 0 {
		return fmt.Errorf("unexpected arguments %v (shard files are only read with -merge-shards)", c.shardIn)
	}
	return nil
}

// runMerge is the -merge-shards path: decode every shard document, merge
// in shard order, and write the campaign result.
func runMerge(c runConfig) error {
	shards := make([]*fleet.Shard, 0, len(c.shardIn))
	for _, path := range c.shardIn {
		var r io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		shard, err := fleet.DecodeShard(r)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		shards = append(shards, shard)
	}
	result, err := fleet.MergeShards(shards)
	if err != nil {
		return err
	}
	if len(result.Failed) > 0 {
		fmt.Fprintf(os.Stderr, "ccdem-fleet: %d devices failed; aggregate covers the survivors\n", len(result.Failed))
	}
	return result.WriteJSON(os.Stdout, false)
}

func run(c runConfig) error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.merge {
		return runMerge(c)
	}
	cohort := fleet.Cohort{
		Devices:      c.devices,
		Seed:         c.seed,
		Session:      sim.Time(c.duration) * sim.Second,
		MeterSamples: c.samples,
		Hardened:     c.hardened,
		NaivePixels:  c.naivePix,
		FailFast:     c.failFast,
	}
	if c.faults > 0 {
		plan := fault.DefaultPlan().Scale(c.faults)
		cohort.Faults = &plan
	}
	if c.mode != "" {
		g, err := fleet.ParseGovernor(c.mode)
		if err != nil {
			return err
		}
		cohort.Governor = g
	}

	if c.writeTo != "" {
		f, err := os.Create(c.writeTo)
		if err != nil {
			return err
		}
		if err := fleet.WriteSpec(f, cohort); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	if c.specPath != "" {
		f, err := os.Open(c.specPath)
		if err != nil {
			return err
		}
		spec, err := fleet.ReadSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		// The spec is the cohort; flags the user typed explicitly still win.
		set := map[string]bool{}
		flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		if !set["devices"] {
			cohort.Devices = spec.Devices
		}
		if !set["seed"] {
			cohort.Seed = spec.Seed
		}
		if !set["duration"] {
			cohort.Session = spec.Session
		}
		if !set["mode"] {
			cohort.Governor = spec.Governor
		}
		if !set["samples"] {
			cohort.MeterSamples = spec.MeterSamples
		}
		cohort.Pack = spec.Pack
		cohort.Profiles = spec.Profiles
	}

	pool := fleet.Pool{Workers: c.workers, TaskTimeout: c.timeout, Batch: c.batch}
	if c.progress {
		pool.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfleet: %d/%d devices", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	if c.obs.traceOut != "" || c.obs.metrics || c.obs.metricsProm != "" {
		cohort.Obs = obs.NewCollector(0)
		cohort.Obs.SetSample(c.obs.sample)
	}
	if c.obs.traceSched {
		pool.Spans = obs.NewSpanLog()
	}
	if c.shard != "" {
		index, count, err := fleet.ParseShard(c.shard)
		if err != nil {
			return err
		}
		cohort.ShardIndex, cohort.ShardCount = index, count
		shard, err := cohort.RunShard(context.Background(), pool)
		if err != nil {
			return err
		}
		if err := writeObs(cohort.Obs, pool.Spans, c.obs); err != nil {
			return err
		}
		if len(shard.Failed) > 0 {
			fmt.Fprintf(os.Stderr, "ccdem-fleet: shard %s: %d devices failed\n", c.shard, len(shard.Failed))
		}
		return shard.Encode(os.Stdout)
	}
	var sinkErr error
	if c.stream {
		cohort.Stream = true
		if c.format == "csv" {
			// Streamed CSV: header up front, then one row per surviving
			// device as it completes — per-device output without retaining
			// a single result. Rows arrive in completion order; the device
			// column re-orders downstream (sort -t, -k1 -n).
			if err := fleet.WriteCSVHeader(os.Stdout); err != nil {
				return err
			}
			cohort.Sink = func(d fleet.DeviceResult) {
				if sinkErr == nil {
					sinkErr = d.WriteCSVRow(os.Stdout)
				}
			}
		}
	}
	result, err := cohort.Run(context.Background(), pool)
	if err != nil {
		return err
	}
	if sinkErr != nil {
		return sinkErr
	}
	if err := writeObs(cohort.Obs, pool.Spans, c.obs); err != nil {
		return err
	}
	if len(result.Failed) > 0 {
		fmt.Fprintf(os.Stderr, "ccdem-fleet: %d of %d devices failed; aggregate covers the survivors\n",
			len(result.Failed), cohort.Devices)
	}
	if c.format == "csv" {
		if c.stream {
			return nil // rows already emitted by the sink
		}
		return result.WriteCSV(os.Stdout)
	}
	return result.WriteJSON(os.Stdout, c.perDev)
}

// writeObs exports the collected fleet observability: the Perfetto trace
// (plus the scheduler track with -trace-sched) to -trace-out, the merged
// fleet registry dump to stderr with -metrics, and the same registry in
// Prometheus text exposition format to -metrics-prom.
func writeObs(c *obs.Collector, spans *obs.SpanLog, of obsFlags) error {
	if c == nil {
		return nil
	}
	if of.traceOut != "" {
		tr := c.Trace()
		if spans != nil {
			// The scheduler track gets its own Perfetto process after the
			// device tracks; wall-clock spans are inherently not
			// reproducible, which is why they are opt-in.
			tr.AddSpans(len(c.Tracks())+1, "pool scheduler", spans.Spans())
		}
		f, err := os.Create(of.traceOut)
		if err != nil {
			return err
		}
		if err := tr.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d tracks written to %s (open in https://ui.perfetto.dev)\n",
			len(c.Tracks()), of.traceOut)
	}
	if of.metrics {
		fmt.Fprintln(os.Stderr, "\nmerged fleet metrics:")
		if err := c.WriteMetrics(os.Stderr); err != nil {
			return err
		}
	}
	if of.metricsProm != "" {
		merged, err := c.MergedMetrics()
		if err != nil {
			return err
		}
		if of.metricsProm == "-" {
			return merged.WritePrometheus(os.Stderr)
		}
		f, err := os.Create(of.metricsProm)
		if err != nil {
			return err
		}
		if err := merged.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
