package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run (-trace 1): a separate run per workload that alternates
// untraced and traced campaigns of the same input, charges the traced
// campaigns' CPU profiles to the layer ledger, and reports the ledger,
// the program's counts, and the tracing overhead.

// countLines are the program counts a traced campaign reports, with
// units; all but runtime.* must repeat exactly.
var countLines = [][2]string{
	{"app.memo_hits", "count"}, {"app.memo_misses", "count"}, {"app.memo_hit_ratio", "ratio"},
	{"framebuffer.palette_tiles", "count"}, {"framebuffer.palette_promotions", "count"},
	{"surface.frames", "count"}, {"core.content_frames", "count"}, {"core.redundant_frames", "count"},
	{"core.compare_cost_ms", "ms"}, {"core.touch_boosts", "count"}, {"display.refresh_switches", "count"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
}

// svcLines are the service path's per-job lines; zero on the in-process
// workloads.
var svcLines = [][2]string{
	{"svc.worker_run_ms", "ms"}, {"fleet.encode_ms", "ms"}, {"svc.dispatch_overhead_ms", "ms"},
	{"fleet.merge_ms", "ms"}, {"svc.http_ms", "ms"}, {"svc.worker_cpu_ms", "ms"},
	{"svc.cpu_vs_direct", "ratio"}, {"svc.retries", "count"},
}

// tracedCampaigns runs pairs of untraced and traced in-process campaigns
// of each variant in turn, alternating which of the pair goes first, and
// returns the ledger over the traced ones, the untraced and traced
// devices_per_s samples, and the untraced CPU per campaign.
func (b *bench) tracedCampaigns(deadline time.Time) (*ledger, []float64, []float64, []float64, error) {
	l := newLedger()
	var plain, traced, cpu []float64
	n := float64(b.w.devices)
	for i := 0; b.more(i, deadline); i++ {
		k := i % len(b.set)
		for j := 0; j < 2; j++ {
			prof := ""
			if (i+j)%2 == 1 {
				prof = filepath.Join(b.work, fmt.Sprintf("cpu-%d.pb.gz", i))
			}
			rep, ru, err := b.launch(k, prof, false)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			b.checkCampaign(b.w, b.set[k], rep)
			dps := n / (float64(rep.SpanNS) / 1e9)
			if prof == "" {
				plain = append(plain, dps)
				cpu = append(cpu, cpuNS(ru)/1e6)
				continue
			}
			traced = append(traced, dps)
			samples, err := readProfileFile(prof)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			l.add(samples, float64(rep.SpanNS)/1e6)
			for name, ns := range rep.Spans {
				l.spans[name] = append(l.spans[name], float64(ns)/1e6)
			}
		}
	}
	return l, plain, traced, cpu, nil
}

func readProfileFile(path string) ([]stackSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := readProfile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return samples, nil
}

// meanCounts averages the program counts of the run's variants: one
// campaign's (or job's) worth.
func (b *bench) meanCounts() map[string]float64 {
	out := map[string]float64{}
	for _, v := range b.set {
		for k, c := range b.refCounts[v] {
			out[k] += c / float64(len(b.set))
		}
	}
	return out
}

// layerMetrics assembles every per-layer metric: ledger lines scaled to
// one unit of work (a device, or a svc job), counts, svc lines, and the
// tracing overhead.
func layerMetrics(lines, counts, svc map[string]float64, plain, traced []float64) map[string]metric {
	out := map[string]metric{}
	for k, v := range lines {
		out[k] = metric{v, "ms"}
	}
	for _, c := range countLines {
		out[c[0]] = metric{counts[c[0]], c[1]}
	}
	for _, c := range svcLines {
		out[c[0]] = metric{svc[c[0]], c[1]}
	}
	out["ledger.trace_overhead_pct"] = metric{100 * (1 - median(traced)/median(plain)), "%"}
	return out
}

func (b *bench) fleetLedger(diag map[string]float64) (map[string]metric, error) {
	l, plain, traced, _, err := b.tracedCampaigns(time.Now().Add(b.seconds))
	if err != nil {
		return nil, err
	}
	lines := l.lines(float64(l.campaigns * b.w.devices))
	b.printLedger(l, lines, "device")
	diag["traced_campaigns"] = float64(l.campaigns)
	return layerMetrics(lines, b.meanCounts(), nil, plain, traced), nil
}

// svcLedger spends half the run on traced svc jobs and half on the same
// spec run directly in-process: the direct runs give the simulation
// layers' ledger per job and the CPU the svc path is compared with.
func (b *bench) svcLedger(diag map[string]float64) (map[string]metric, error) {
	client := &http.Client{Timeout: 120 * time.Second}
	jobs, _, cpuMS, _, err := b.svcLoop(client, time.Now().Add(b.seconds/2), true)
	if err != nil {
		return nil, err
	}
	l, plain, traced, direct, err := b.tracedCampaigns(time.Now().Add(b.seconds / 2))
	if err != nil {
		return nil, err
	}
	var run, enc, overhead, merge, httpMS, wcpu, retries []float64
	for _, o := range jobs {
		ms := func(name string) float64 { return float64(o.spans[name]) / 1e3 }
		run = append(run, ms("run"))
		enc = append(enc, ms("encode"))
		overhead = append(overhead, ms("dispatch")-ms("run")-ms("encode"))
		merge = append(merge, 1e3*o.progress.StageS["merge"])
		httpMS = append(httpMS, 1e3*(o.latencyS-o.progress.ElapsedS))
		wcpu = append(wcpu, 1e3*o.progress.CPUS)
		retries = append(retries, float64(o.progress.Retries))
	}
	svc := map[string]float64{
		"svc.worker_run_ms":        median(run),
		"fleet.encode_ms":          median(enc),
		"svc.dispatch_overhead_ms": median(overhead),
		"fleet.merge_ms":           median(merge),
		"svc.http_ms":              median(httpMS),
		"svc.worker_cpu_ms":        median(wcpu),
		"svc.cpu_vs_direct":        cpuMS / float64(len(jobs)) / median(direct),
		"svc.retries":              median(retries),
	}
	lines := l.lines(float64(l.campaigns))
	b.printLedger(l, lines, "job")
	calls := map[string][]float64{}
	for _, o := range jobs {
		for k, v := range o.calls {
			calls[k] = append(calls[k], float64(v)/1e6)
		}
	}
	b.printSpans("client span", calls)
	for _, c := range svcLines {
		fmt.Fprintf(b.stderr, "  %-28s %10.3f %s\n", c[0], svc[c[0]], c[1])
	}
	diag["jobs"] = float64(len(jobs))
	diag["traced_campaigns"] = float64(l.campaigns)
	return layerMetrics(lines, b.meanCounts(), svc, plain, traced), nil
}

// printLedger writes the human-readable ledger table, and the spans
// around the public calls of the traced campaigns, to stderr.
func (b *bench) printLedger(l *ledger, lines map[string]float64, unit string) {
	wall := lines["ledger.wall_ms"]
	fmt.Fprintf(b.stderr, "%s ledger over %d traced campaigns (ms per %s; top-level lines sum to the wall time)\n",
		b.w.name, l.campaigns, unit)
	sum := 0.0
	for _, k := range topLines {
		sum += lines[k]
		fmt.Fprintf(b.stderr, "  %-28s %10.3f  %5.1f%%\n", k, lines[k], 100*lines[k]/wall)
	}
	fmt.Fprintf(b.stderr, "  %-28s %10.3f  (sum of lines %.3f)\n", "ledger.wall_ms", wall, sum)
	for _, k := range kernelLinesOrder {
		fmt.Fprintf(b.stderr, "    %-26s %10.3f  %5.1f%%\n", k, lines[k], 100*lines[k]/wall)
	}
	b.printSpans("span", l.spans)
}

// printSpans writes each span's median, in ms, to stderr.
func (b *bench) printSpans(label string, spans map[string][]float64) {
	names := make([]string, 0, len(spans))
	for k := range spans {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b.stderr, "  %s %-18s p50 %10.3f ms over %d\n", label, k, median(spans[k]), len(spans[k]))
	}
}
