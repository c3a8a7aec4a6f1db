package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"ccdem/internal/fleet"
	"ccdem/internal/obs"
)

// A campaign runs in a fresh child process, so the process-global app
// state memo starts cold exactly as it does for every ccdem-fleet call
// and every svc shard worker. The child times itself against the parent's
// launch instant (t0Env) and reports one JSON line on stdout.

const t0Env = "PERFBENCH_T0_NS"

// campaignReport is what one child campaign reports to the parent.
type campaignReport struct {
	// SetupNS runs from the parent's launch to the campaign call, with
	// the spec parsed and validated.
	SetupNS int64 `json:"setup_ns"`
	// SpanNS runs from spec in (ReadSpec) to result out (WriteJSON).
	SpanNS     int64          `json:"span_ns"`
	Failed     int            `json:"failed"`
	Digest     string         `json:"digest"`
	SavedMW    float64        `json:"saved_mw"`
	QualityPct float64        `json:"quality_pct"`
	Classes    map[string]int `json:"classes"`
	// Traced campaigns only: the spans around each public call, the
	// program's own counters, and runtime allocation totals.
	Spans  map[string]int64   `json:"spans,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

type childConfig struct {
	spec      string // spec file
	retained  bool   // per-device rows in the result
	profile   string // CPU profile output; non-empty means traced
	setupOnly bool
}

func runChild(cfg childConfig, stdout io.Writer) error {
	t0, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64)
	if err != nil {
		return fmt.Errorf("child: %s: %v", t0Env, err)
	}
	traced := cfg.profile != ""
	var prof *os.File
	if traced {
		if prof, err = os.Create(cfg.profile); err != nil {
			return err
		}
		defer prof.Close()
	}
	f, err := os.Open(cfg.spec)
	if err != nil {
		return err
	}
	defer f.Close()

	var (
		rep    campaignReport
		col    *obs.Collector
		before runtime.MemStats
	)
	if traced {
		// The profile covers the whole traced span, so the ledger's lines
		// and residual add up to it.
		col = obs.NewCollector(0)
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	start := monoNow()
	cohort, err := fleet.ReadSpec(f)
	if err != nil {
		return err
	}
	runStart := monoNow()
	rep.SetupNS = runStart - t0
	if cfg.setupOnly {
		return json.NewEncoder(stdout).Encode(rep)
	}
	cohort.Stream = !cfg.retained
	cohort.Obs = col
	res, err := cohort.Run(context.Background(), fleet.Pool{Workers: 1})
	if err != nil {
		return err
	}
	runEnd := monoNow()
	h := sha256.New()
	if err := res.WriteJSON(h, cfg.retained); err != nil {
		return err
	}
	end := monoNow()
	if traced {
		pprof.StopCPUProfile()
	}

	rep.SpanNS = end - start
	rep.Failed = len(res.Failed)
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rep.SavedMW = res.Aggregate.MeanSavedMW
	rep.QualityPct = res.Aggregate.QualityPctMean
	rep.Classes = map[string]int{}
	for _, p := range res.Aggregate.Profiles {
		rep.Classes[p.Profile] = p.Devices
	}
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rep.Spans = map[string]int64{
			"fleet.ReadSpec":   runStart - start,
			"Cohort.Run":       runEnd - runStart,
			"Result.WriteJSON": end - runEnd,
		}
		if rep.Counts, err = programCounts(col); err != nil {
			return err
		}
		rep.Counts["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		rep.Counts["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// programCounts reads the counters the program already exports through
// the cohort's obs.Collector (managed sessions only; baselines run
// uninstrumented).
func programCounts(col *obs.Collector) (map[string]float64, error) {
	reg, err := col.MergedMetrics()
	if err != nil {
		return nil, err
	}
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	hits, misses := c("app_memo_hits_total"), c("app_memo_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	return map[string]float64{
		"app.memo_hits":                  hits,
		"app.memo_misses":                misses,
		"app.memo_hit_ratio":             ratio,
		"framebuffer.palette_tiles":      c("fb_palette_tiles"),
		"framebuffer.palette_promotions": c("fb_palette_promotions_total"),
		"surface.frames":                 c("frames_total"),
		"core.content_frames":            c("content_frames_total"),
		"core.redundant_frames":          c("redundant_frames_total"),
		"core.compare_cost_ms":           reg.Histogram("compare_cost_us", obs.CompareCostBucketsUS).Sum() / 1000,
		"core.touch_boosts":              c("touch_boosts_total"),
		"display.refresh_switches":       c("refresh_switches_total"),
	}, nil
}
