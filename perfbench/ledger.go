package main

import (
	"strings"
	"unicode"
)

// The layer ledger: every CPU profile sample of a traced campaign is
// charged twice — once to the innermost calling layer outside
// framebuffer and the runtime (the top-level lines, which with the
// residual sum to the traced wall time), and once to the outermost public
// framebuffer kernel beneath that layer (the nested lines). Charging the
// leaf package instead would put nearly everything on framebuffer, whose
// memory-streaming kernels every layer calls.

// Top-level ledger lines, in print order.
var topLines = []string{
	"fleet.self_ms", "input.script_ms", "ccdem.device_ms", "sim.engine_ms",
	"app.paint_ms", "app.memo_store_ms", "surface.compose_ms",
	"core.meter_ms", "core.governor_ms", "display.panel_ms", "power.model_ms",
	"obs.record_ms", "runtime.gc_ms", "ledger.residual_ms",
}

// Nested framebuffer kernel lines, in print order.
var kernelLinesOrder = []string{
	"framebuffer.fill_ms", "framebuffer.scroll_ms", "framebuffer.snapshot_ms",
	"framebuffer.share_ms", "framebuffer.delta_compare_ms", "framebuffer.blit_ms",
	"framebuffer.other_ms",
}

const (
	fbPkg       = "ccdem/internal/framebuffer"
	residual    = "ledger.residual_ms"
	memoStore   = "app.memo_store_ms"
	snapshotLn  = "framebuffer.snapshot_ms"
	otherKernel = "framebuffer.other_ms"
)

// layerOfPkg maps a package to its top-level line. Packages absent here
// (framebuffer, the runtime, the standard library, small helpers such as
// internal/trace) are not layers: their samples pass to the caller.
var layerOfPkg = map[string]string{
	"ccdem/internal/fleet":   "fleet.self_ms",
	"ccdem/internal/input":   "input.script_ms",
	"ccdem":                  "ccdem.device_ms",
	"ccdem/internal/sim":     "sim.engine_ms",
	"ccdem/internal/app":     "app.paint_ms",
	"ccdem/internal/surface": "surface.compose_ms",
	"ccdem/internal/core":    "core.governor_ms", // meter.go: core.meter_ms
	"ccdem/internal/display": "display.panel_ms",
	"ccdem/internal/power":   "power.model_ms",
	"ccdem/internal/battery": "power.model_ms",
	"ccdem/internal/fault":   "core.governor_ms",
	"ccdem/internal/obs":     "obs.record_ms",
}

// kernelOf maps a public framebuffer function or method name to its
// nested line; other public kernels go to framebuffer.other_ms.
var kernelOf = map[string]string{
	"Fill": "framebuffer.fill_ms", "FillAll": "framebuffer.fill_ms",
	"ScrollVert":         "framebuffer.scroll_ms",
	"NewPaletteSnapshot": snapshotLn,
	"ShareFrom":          "framebuffer.share_ms", "ShareFromDamage": "framebuffer.share_ms",
	"DeltaCompare": "framebuffer.delta_compare_ms", "Prime": "framebuffer.delta_compare_ms",
	"Sample": "framebuffer.delta_compare_ms", "SamplesDiffer": "framebuffer.delta_compare_ms",
	"SamplesFirstDiff": "framebuffer.delta_compare_ms",
	"Blit":             "framebuffer.blit_ms", "BlitTiled": "framebuffer.blit_ms",
	"CopyFrom": "framebuffer.blit_ms",
}

// gcRoots mark runtime work done for the collector, by its background
// workers or by a mutator assisting it.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart",
}

// splitFunc splits a qualified function name into its package path and
// the rest: "ccdem/internal/app.(*Model).RenderRegion" gives
// "ccdem/internal/app" and "(*Model).RenderRegion".
func splitFunc(fn string) (pkg, rest string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// publicKernel reports the framebuffer line for a public framebuffer
// function or method ("(*Buffer).Fill", "NewPaletteSnapshot"), or "" for
// an unexported one or a closure inside one.
func publicKernel(rest string) string {
	if strings.HasPrefix(rest, "(") {
		end := strings.Index(rest, ").")
		if end < 0 {
			return ""
		}
		recv := strings.TrimPrefix(rest[1:end], "*")
		if !isExported(recv) {
			return ""
		}
		rest = rest[end+2:]
	} else if i := strings.IndexByte(rest, '.'); i >= 0 {
		// A value-receiver method: Type.Method.
		if !isExported(rest[:i]) {
			return ""
		}
		rest = rest[i+1:]
	}
	if strings.ContainsRune(rest, '.') || !isExported(rest) {
		return ""
	}
	if line, ok := kernelOf[rest]; ok {
		return line
	}
	return otherKernel
}

func isExported(name string) bool {
	for _, r := range name {
		return unicode.IsUpper(r)
	}
	return false
}

// classify returns the top-level line and the nested kernel line ("" for
// none) a sample with the given leaf-first stack is charged to.
func classify(stack []frame) (top, kernel string) {
	for _, f := range stack {
		for _, g := range gcRoots {
			if f.fn == g {
				return "runtime.gc_ms", ""
			}
		}
	}
	for i, f := range stack {
		pkg, _ := splitFunc(f.fn)
		layer, ok := layerOfPkg[pkg]
		if !ok {
			continue
		}
		if pkg == "ccdem/internal/core" && strings.HasSuffix(f.file, "/core/meter.go") {
			layer = "core.meter_ms"
		}
		// The outermost public framebuffer kernel beneath the layer.
		for j := i - 1; j >= 0; j-- {
			if p, rest := splitFunc(stack[j].fn); p == fbPkg {
				if k := publicKernel(rest); k != "" {
					kernel = k
					break
				}
			}
		}
		if layer == "app.paint_ms" && kernel == snapshotLn {
			layer = memoStore
		}
		return layer, kernel
	}
	return residual, ""
}

// ledger accumulates classified CPU time.
type ledger struct {
	top       map[string]float64 // ms
	kernel    map[string]float64 // ms
	wallMS    float64
	campaigns int
	// spans holds each traced campaign's span around every public call
	// the benchmark makes, in ms.
	spans map[string][]float64
}

func newLedger() *ledger {
	return &ledger{top: map[string]float64{}, kernel: map[string]float64{}, spans: map[string][]float64{}}
}

// add charges one traced campaign: its profile samples and the wall time
// they were taken over.
func (l *ledger) add(samples []stackSample, wallMS float64) {
	l.wallMS += wallMS
	l.campaigns++
	for _, s := range samples {
		top, k := classify(s.stack)
		ms := float64(s.ns) / 1e6
		if top != residual {
			l.top[top] += ms
		}
		if k != "" {
			l.kernel[k] += ms
		}
	}
}

// lines returns every ledger line scaled by 1/per. The residual is the
// traced wall time the attributed lines leave unexplained — unmatched
// samples, time off the CPU, less time the collector spent on another
// core — so the top-level lines always sum to the wall time.
func (l *ledger) lines(per float64) map[string]float64 {
	out := map[string]float64{}
	attributed := 0.0
	for _, name := range topLines {
		if name != residual {
			out[name] = l.top[name] / per
			attributed += l.top[name]
		}
	}
	out[residual] = (l.wallMS - attributed) / per
	for _, name := range kernelLinesOrder {
		out[name] = l.kernel[name] / per
	}
	out["ledger.wall_ms"] = l.wallMS / per
	return out
}
