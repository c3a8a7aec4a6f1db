// Command perfbench is the campaign benchmark: it drives the fleet
// simulator end to end on three workloads — feeds-cold and games-video
// in-process through fleet.ReadSpec → Cohort.Run → Result.WriteJSON, and
// svc-sharded through the real ccdem-svc daemon with subprocess shards —
// checks every result against a pinned digest, and prints the end-to-end
// metrics, or with -trace 1 the per-layer ledger, as the last line of
// stdout. See README.md; run it through run.sh, which builds it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: feeds-cold | games-video | svc-sharded")
	seed := fs.Int64("seed", 1, "input seed; draws the run's pinned input variants, one per cost stratum")
	seconds := fs.Float64("seconds", 50, "measurement time (at least one campaign or job of every variant runs)")
	trace := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	out := fs.String("out", ".bench_build", "build directory holding ccdem-svc; scratch files go beneath it")
	pin := fs.Bool("pin", false, "run every workload variant, time it in interleaved rounds, and print pins.go")
	child := fs.Bool("child", false, "internal: run one campaign in this process")
	spec := fs.String("spec", "", "internal (-child): cohort spec file")
	retained := fs.Bool("retained", false, "internal (-child): keep per-device rows in the result")
	profile := fs.String("profile", "", "internal (-child): trace the campaign, writing its CPU profile here")
	setupOnly := fs.Bool("setup-only", false, "internal (-child): stop once the spec is parsed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return code
	}
	if *child {
		cfg := childConfig{spec: *spec, retained: *retained, profile: *profile, setupOnly: *setupOnly}
		if err := runChild(cfg, stdout); err != nil {
			return fail(1, err)
		}
		return 0
	}
	outDir, err := filepath.Abs(*out)
	if err != nil {
		return fail(2, err)
	}
	b := &bench{seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		svcBin: filepath.Join(outDir, "ccdem-svc"), stderr: stderr}
	if b.self, err = os.Executable(); err != nil {
		return fail(1, err)
	}
	if b.work, err = os.MkdirTemp(outDir, "run-"); err != nil {
		return fail(1, err)
	}
	defer os.RemoveAll(b.work)
	if *pin {
		if err := writePins(b, stdout); err != nil {
			return fail(1, err)
		}
		return 0
	}
	if b.w, err = lookupWorkload(*name); err != nil {
		return fail(2, err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(2, errors.New("need -seconds > 0 and -trace 0 or 1"))
	}
	if err := b.setInputs(setFrom(b.w.name, *seed)); err != nil {
		return fail(1, err)
	}
	return b.run(stdout)
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one benchmark invocation.
type bench struct {
	w       workload
	set     []int    // the run's variants, cycled through in order
	specs   [][]byte // their cohort specs
	seconds time.Duration
	traced  bool
	self    string // this executable, re-run with -child
	svcBin  string
	work    string // scratch directory, removed on exit
	stderr  io.Writer
	tally
}

// setInputs writes the spec of each variant in set to the scratch
// directory.
func (b *bench) setInputs(set []int) error {
	for _, v := range set {
		if _, err := pinFor(b.w.name, v); err != nil {
			return err
		}
	}
	b.set = set
	return b.writeSpecs(pins[b.w.name])
}

func (b *bench) specPath(i int) string {
	return filepath.Join(b.work, fmt.Sprintf("spec-%d.json", b.set[i]))
}

// tally is the run's correctness account: devices attempted and failed,
// and the reasons for any failure.
type tally struct {
	attempted, failed int
	problems          []string
	// refs holds each variant's first result; later ones must match it.
	refs      map[int]campaignReport
	refCounts map[int]map[string]float64
}

// record accounts one campaign or job of devices: failed devices count
// as failed, and a problem (digest mismatch, determinism break, error)
// fails the whole campaign.
func (t *tally) record(devices, failed int, problem string) {
	t.attempted += devices
	if problem != "" {
		t.problems = append(t.problems, problem)
		t.failed += devices
		return
	}
	t.failed += failed
}

// checkCampaign verifies one campaign's result: no failed device, the
// pinned digest, the balanced class mix, and — against the variant's
// first campaign of the run — identical simulated outputs and program
// counts.
func (t *tally) checkCampaign(w workload, variant int, rep campaignReport) {
	if t.refs == nil {
		t.refs, t.refCounts = map[int]campaignReport{}, map[int]map[string]float64{}
	}
	ref, seen := t.refs[variant]
	problem := ""
	if rep.Failed > 0 {
		problem = fmt.Sprintf("%d devices failed", rep.Failed)
	} else if err := verifyDigest(w.name, variant, rep.Digest); err != nil {
		problem = err.Error()
	} else if !sameClasses(w, rep.Classes) {
		problem = fmt.Sprintf("class mix %v, want %v", rep.Classes, w.classMix())
	} else if seen && (rep.SavedMW != ref.SavedMW || rep.QualityPct != ref.QualityPct) {
		problem = "simulated outputs differ between campaigns of one input"
	} else if rep.Counts != nil {
		if rc, ok := t.refCounts[variant]; !ok {
			t.refCounts[variant] = rep.Counts
		} else if k := countMismatch(rc, rep.Counts); k != "" {
			problem = "program count " + k + " differs between campaigns of one input"
		}
	}
	if !seen {
		t.refs[variant] = rep
	}
	t.record(w.devices, rep.Failed, problem)
}

// countMismatch names a deterministic count that differs, or "". The
// runtime's allocation and GC counts depend on the collector's pacing
// and the profiler's own buffers, so they are reported but not compared.
func countMismatch(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !strings.HasPrefix(k, "runtime.") && a[k] != b[k] {
			return k
		}
	}
	return ""
}

func sameClasses(w workload, got map[string]int) bool {
	want := w.classMix()
	for i, p := range w.profiles {
		if got[p.Name] != want[i] {
			return false
		}
	}
	return true
}

// verifyDigest checks that a result is byte-identical to the variant's
// pinned one.
func verifyDigest(workload string, variant int, digest string) error {
	p, err := pinFor(workload, variant)
	if err != nil {
		return err
	}
	if digest != p.Digest {
		return fmt.Errorf("%s variant %d: result digest %.12s differs from the pinned %.12s", workload, variant, digest, p.Digest)
	}
	return nil
}

func (b *bench) run(stdout io.Writer) int {
	// Host-noise diagnostics, taken just before the workload.
	diag := map[string]float64{
		"register_loop_ms": registerLoopMS(),
		"memcpy_8mib_ms":   memcpyMS(),
	}
	steal0 := stealTicks()

	var metrics map[string]metric
	var err error
	switch {
	case b.w.shards > 0 && b.traced:
		metrics, err = b.svcLedger(diag)
	case b.w.shards > 0:
		metrics, err = b.svcEndToEnd(diag)
	case b.traced:
		metrics, err = b.fleetLedger(diag)
	default:
		metrics, err = b.fleetEndToEnd(diag)
	}
	if err != nil {
		b.record(b.w.devices, 0, err.Error())
	}
	diag["steal_ticks"] = float64(stealTicks() - steal0)
	return b.report(stdout, metrics, diag)
}

// simulated sets the headline simulated numbers: their means over the
// run's variants.
func (b *bench) simulated(metrics map[string]metric) {
	var saved, quality float64
	for _, v := range b.set {
		saved += b.refs[v].SavedMW
		quality += b.refs[v].QualityPct
	}
	n := float64(len(b.set))
	metrics["saved_mw"] = metric{saved / n, "mW"}
	metrics["quality_pct"] = metric{quality / n, "%"}
}

// report prints the diagnostics line and then the result line, and
// returns the exit code: non-zero when any check failed.
func (b *bench) report(stdout io.Writer, metrics map[string]metric, diag map[string]float64) int {
	correct := len(b.problems) == 0
	if metrics == nil {
		metrics = map[string]metric{}
	}
	if !b.traced {
		metrics["completed_frac"] = metric{float64(b.attempted-b.failed) / float64(b.attempted), "ratio"}
	}
	diagDoc, _ := json.Marshal(map[string]any{
		"workload": b.w.name, "variants": b.set, "diagnostics": diag, "problems": b.problems,
	})
	fmt.Fprintf(stdout, "%s\n", diagDoc)
	for _, p := range b.problems {
		fmt.Fprintf(b.stderr, "perfbench: FAIL: %s\n", p)
	}
	doc, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, metrics})
	fmt.Fprintf(stdout, "%s\n", doc)
	if !correct {
		return 1
	}
	return 0
}

// launch runs the campaign of set entry i (or, with setupOnly, one
// start-up) in a fresh process and returns its report and resource
// usage.
func (b *bench) launch(i int, profile string, setupOnly bool) (campaignReport, *syscall.Rusage, error) {
	args := []string{"-child", "-spec", b.specPath(i)}
	if b.w.retained {
		args = append(args, "-retained")
	}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	var out bytes.Buffer
	cmd := exec.Command(b.self, args...)
	cmd.Stdout = &out
	cmd.Stderr = b.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), t0Env+"="+strconv.FormatInt(monoNow(), 10))
	if err := cmd.Run(); err != nil {
		return campaignReport{}, nil, fmt.Errorf("campaign: %v", err)
	}
	var rep campaignReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return campaignReport{}, nil, fmt.Errorf("campaign report: %v", err)
	}
	return rep, cmd.ProcessState.SysUsage().(*syscall.Rusage), nil
}

// more reports whether the run should start campaign (or job) i: until
// every variant of the set has run once, and then until the deadline.
// The rates take each variant's median, so a variant that runs once
// more than the others before the deadline does not weigh more, and the
// run overshoots --seconds by at most one campaign.
func (b *bench) more(i int, deadline time.Time) bool {
	return i < len(b.set) || time.Now().Before(deadline)
}

// setupProbes is how many extra start-ups each run times for setup_s, on
// top of one per campaign: start-up takes milliseconds and swings by half
// between launches, so only a median of many is steady.
const setupProbes = 15

func (b *bench) setupSamples() ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbes; i++ {
		rep, _, err := b.launch(i%len(b.set), "", true)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(rep.SetupNS)/1e9)
	}
	return out, nil
}

func cpuNS(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// fleetEndToEnd runs fresh-process campaigns back to back for the
// measurement time and reports medians.
func (b *bench) fleetEndToEnd(diag map[string]float64) (map[string]metric, error) {
	setups, err := b.setupSamples()
	if err != nil {
		return nil, err
	}
	var cpu, rss, span []float64
	deadline := time.Now().Add(b.seconds)
	for i := 0; b.more(i, deadline); i++ {
		rep, ru, err := b.launch(i%len(b.set), "", false)
		if err != nil {
			return nil, err
		}
		b.checkCampaign(b.w, b.set[i%len(b.set)], rep)
		cpu = append(cpu, cpuNS(ru)/1e6)
		rss = append(rss, float64(ru.Maxrss)/1024)
		span = append(span, float64(rep.SpanNS)/1e9)
		setups = append(setups, float64(rep.SetupNS)/1e9)
	}
	diag["campaigns"] = float64(len(span))
	diag["setup_samples"] = float64(len(setups))
	diag["span_iqr_pct"] = 100 * iqrShare(span)
	metrics := map[string]metric{
		"devices_per_s":     {b.cycleDevices() / b.cycleTotal(span), "1/s"},
		"cpu_ms_per_device": {b.cycleTotal(cpu) / b.cycleDevices(), "ms"},
		"peak_rss_mb":       {slices.Max(rss), "MB"},
		"setup_s":           {median(setups), "s"},
		"job_s_p50":         {median(span), "s"},
	}
	b.simulated(metrics)
	return metrics, nil
}

// cycleTotal sums, over the run's variants, the median of each one's
// samples; sample i belongs to variant i mod the set size, as campaigns
// and jobs cycle through the set. The rates built on it weigh every
// variant equally and use every stratum's cost, where a median over all
// the run's samples would see only the middle strata.
func (b *bench) cycleTotal(samples []float64) float64 {
	total := 0.0
	for k := range b.set {
		var own []float64
		for i := k; i < len(samples); i += len(b.set) {
			own = append(own, samples[i])
		}
		total += median(own)
	}
	return total
}

// cycleDevices is the number of devices in one cycle of the run's set.
func (b *bench) cycleDevices() float64 {
	return float64(len(b.set) * b.w.devices)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the inter-quartile range over the median (inclusive
// quartiles; 0 for fewer than two values).
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return (q(0.75) - q(0.25)) / median(s)
}
