// Package core implements the paper's contribution: measuring the content
// rate of the display pipeline at negligible cost and driving the panel's
// refresh rate from it.
//
// Three pieces correspond directly to the paper's §3:
//
//   - Meter: content-rate metering via double buffering and grid-based
//     comparison of the framebuffer (§3.1, Figure 4),
//   - SectionTable + Controller: section-based refresh control (§3.2,
//     Equation 1, Figure 5),
//   - Booster: touch boosting (§3.2, Figure 5).
//
// Governor wires them together into the runtime the evaluation measures.
package core

import (
	"fmt"

	"ccdem/internal/framebuffer"
	"ccdem/internal/obs"
	"ccdem/internal/power"
	"ccdem/internal/sim"
	"ccdem/internal/trace"
)

// MeterConfig configures a content-rate meter.
type MeterConfig struct {
	// Grid is the comparison lattice. The paper's recommended operating
	// points for the 720×1280 panel are the 9K (72×128) and 36K (144×256)
	// grids.
	Grid framebuffer.Grid
	// Window is the sliding window over which rates are reported. The
	// paper uses one second (rates are FPS).
	Window sim.Time
	// Cost models the comparison's CPU time at device scale; used both
	// for overhead accounting and the Figure 6 feasibility analysis.
	Cost power.CompareCostModel
	// OnCompare, if non-nil, is invoked with the modeled duration of every
	// comparison, letting the power model charge metering overhead.
	OnCompare func(d sim.Time)
	// EarlyExit (an extension beyond the paper) stops the comparison at
	// the first differing sample, so content frames — the common case on
	// busy screens — cost only a fraction of a full sweep. Redundant
	// frames still require the full sweep to be declared redundant.
	// Classification is unaffected; only the cost accounting changes.
	EarlyExit bool
	// Recorder, if non-nil, receives a GridCompare event per comparison
	// and a RedundantFrameDropped event per redundant frame.
	Recorder *obs.Recorder
	// Fault, if non-nil, may mutate the freshly sampled grid (cur) before
	// it is compared against the committed previous samples (prev) —
	// the fault-injection hook for corrupted samples and stale buffers
	// (fault.Injector.MeterHook). primed reports whether prev holds a
	// committed frame. A fault hook forces the naive comparison path
	// (the tile delta path has no per-frame full lattice to corrupt).
	Fault func(t sim.Time, cur, prev []framebuffer.Color, primed bool)
}

// Meter measures the content rate: the number of frames per second whose
// pixels actually differ from the previous frame. It observes every
// framebuffer update (latched frame), samples the comparison grid, and
// classifies the frame as content or redundant.
//
// When the observed buffer tracks tiles (framebuffer.EnableTiles) and no
// fault hook is set, the meter takes the tile-delta path: only lattice
// points inside tiles written since the previous observation are
// compared. Verdicts, first-diff indices and all cost/event accounting
// are identical to the naive full-lattice path.
type Meter struct {
	cfg     MeterConfig
	db      *framebuffer.DoubleBuffer
	frames  *trace.RateCounter
	content *trace.RateCounter

	samples int      // cached cfg.Grid.Samples()
	fullDur sim.Time // cached cfg.Cost.Duration(samples): the full-sweep cost

	// Tile-delta comparison state: tl and committed are built on the
	// first tiled observation and kept across Resets on the same grid;
	// committed holds the lattice values of the last observed frame in
	// the lattice's tile order, updated in place by DeltaCompare;
	// lastBuf/lastGen identify the buffer and generation of the previous
	// observation (lastBuf nil: none since the last Reset).
	tl        *framebuffer.TileLattice
	committed []framebuffer.Color
	lastBuf   *framebuffer.Buffer
	lastGen   uint64

	totalFrames  uint64
	totalContent uint64
	compareTime  sim.Time // accumulated modeled CPU time
}

// NewMeter builds a meter. The grid must be non-trivial and the window
// positive.
func NewMeter(cfg MeterConfig) (*Meter, error) {
	if cfg.Grid.Samples() == 0 {
		return nil, fmt.Errorf("core: meter grid has no samples")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("core: non-positive meter window %v", cfg.Window)
	}
	m := &Meter{
		cfg:     cfg,
		db:      framebuffer.NewDoubleBuffer(cfg.Grid.Samples()),
		frames:  trace.NewRateCounter(cfg.Window),
		content: trace.NewRateCounter(cfg.Window),
		samples: cfg.Grid.Samples(),
		fullDur: cfg.Cost.Duration(cfg.Grid.Samples()),
	}
	return m, nil
}

// Reset reconfigures the meter in place for a new run: rate counters,
// lifetime totals and the comparison history restart from zero. The
// double-buffered lattice is reused when the grid size is unchanged and
// the rate-counter rings when the window is unchanged — the steady-state
// path for fleet device recycling, which makes Reset allocation-free.
func (m *Meter) Reset(cfg MeterConfig) error {
	if cfg.Grid.Samples() == 0 {
		return fmt.Errorf("core: meter grid has no samples")
	}
	if cfg.Window <= 0 {
		return fmt.Errorf("core: non-positive meter window %v", cfg.Window)
	}
	if cfg.Grid.Samples() == m.samples {
		m.db.Reset()
	} else {
		m.db = framebuffer.NewDoubleBuffer(cfg.Grid.Samples())
	}
	if cfg.Window == m.cfg.Window {
		m.frames.Reset()
		m.content.Reset()
	} else {
		m.frames = trace.NewRateCounter(cfg.Window)
		m.content = trace.NewRateCounter(cfg.Window)
	}
	ow, oh := m.cfg.Grid.ScreenDims()
	nw, nh := cfg.Grid.ScreenDims()
	oc, orr := m.cfg.Grid.Dims()
	nc, nr := cfg.Grid.Dims()
	if ow != nw || oh != nh || oc != nc || orr != nr {
		m.tl, m.committed = nil, nil
	}
	m.lastBuf, m.lastGen = nil, 0
	m.cfg = cfg
	m.samples = cfg.Grid.Samples()
	m.fullDur = cfg.Cost.Duration(cfg.Grid.Samples())
	m.totalFrames = 0
	m.totalContent = 0
	m.compareTime = 0
	return nil
}

// ObserveFrame processes one framebuffer update at time t and reports
// whether the frame carried new content. The very first frame observed is
// always content (there is nothing to compare against).
func (m *Meter) ObserveFrame(t sim.Time, fb *framebuffer.Buffer) bool {
	if m.cfg.Fault == nil && fb.TilesEnabled() {
		return m.observeTiled(t, fb)
	}
	return m.observeFull(t, fb)
}

// observeFull is the naive comparison path: sample the full lattice into
// the double buffer and compare against the committed previous frame.
func (m *Meter) observeFull(t sim.Time, fb *framebuffer.Buffer) bool {
	m.cfg.Grid.Sample(fb, m.db.Front())
	if m.cfg.Fault != nil {
		m.cfg.Fault(t, m.db.Front(), m.db.Back(), m.db.Primed())
	}

	isContent := true
	comparedPx := m.samples
	if m.db.Primed() {
		idx := framebuffer.SamplesFirstDiff(m.db.Front(), m.db.Back())
		isContent = idx >= 0
		if m.cfg.EarlyExit && isContent {
			comparedPx = idx + 1
		}
	}
	// The double buffer swap replaces the copy a single-buffer design
	// would need (paper §3.1): commit the current samples as the new
	// "previous frame" only when they actually changed; for a redundant
	// frame front == back so the commit is skipped entirely.
	if isContent {
		m.db.Commit()
	}
	return m.finishObserve(t, isContent, comparedPx)
}

// observeTiled is the tile-delta comparison path: one DeltaCompare of the
// lattice points in tiles written since the last observation. The
// verdict and first-diff index are exactly those of a full scan because
// an unwritten tile is bitwise unchanged and committed holds its last
// observed values (see framebuffer.TileLattice.DeltaCompare). The first
// observation, and one of a different buffer than last time — the
// demotion from direct scanout — compare every tile (since 0); the first
// is content whatever it compares.
func (m *Meter) observeTiled(t sim.Time, fb *framebuffer.Buffer) bool {
	if m.tl == nil {
		m.tl = framebuffer.NewTileLattice(m.cfg.Grid)
		m.committed = make([]framebuffer.Color, m.samples)
	}
	isContent := true
	comparedPx := m.samples
	if fb == m.lastBuf && fb.Gen() == m.lastGen {
		// No mutator ran since the last observation: bitwise-identical
		// framebuffer, the redundant-frame verdict with no pixel reads.
		// The modeled comparison cost is still the full sweep — the
		// simulated device performs it even though the simulator skips it.
		isContent = false
	} else {
		since := m.lastGen
		if fb != m.lastBuf {
			since = 0
		}
		idx := m.tl.DeltaCompare(fb, m.committed, since)
		if m.lastBuf != nil {
			isContent = idx >= 0
			if m.cfg.EarlyExit && isContent {
				comparedPx = idx + 1
			}
		}
	}
	m.lastBuf = fb
	m.lastGen = fb.Gen()
	return m.finishObserve(t, isContent, comparedPx)
}

// finishObserve applies the cost model, event recording and rate
// accounting shared by both comparison paths.
func (m *Meter) finishObserve(t sim.Time, isContent bool, comparedPx int) bool {
	// The full sweep — every redundant frame, and every content frame
	// without early exit — reuses the precomputed duration; Duration is a
	// pure function, so the accounting is unchanged.
	dur := m.fullDur
	if comparedPx != m.samples {
		dur = m.cfg.Cost.Duration(comparedPx)
	}
	m.compareTime += dur
	m.cfg.Recorder.GridCompare(t, dur, comparedPx, isContent)
	if !isContent {
		m.cfg.Recorder.RedundantFrameDropped(t)
	}
	if m.cfg.OnCompare != nil {
		m.cfg.OnCompare(dur)
	}
	m.totalFrames++
	m.frames.Note(t)
	if isContent {
		m.totalContent++
		m.content.Note(t)
	}
	return isContent
}

// ContentRate returns the measured content rate (content frames per
// second) over the window ending at now.
func (m *Meter) ContentRate(now sim.Time) float64 { return m.content.Rate(now) }

// FrameRate returns the measured frame rate (framebuffer updates per
// second) over the window ending at now.
func (m *Meter) FrameRate(now sim.Time) float64 { return m.frames.Rate(now) }

// RedundantRate returns the redundant frame rate: frame rate minus content
// rate, the quantity Figure 3 reports per application.
func (m *Meter) RedundantRate(now sim.Time) float64 {
	r := m.FrameRate(now) - m.ContentRate(now)
	if r < 0 {
		return 0
	}
	return r
}

// Totals returns lifetime frame and content counts.
func (m *Meter) Totals() (frames, content uint64) { return m.totalFrames, m.totalContent }

// TotalRedundant returns the lifetime count of redundant frames.
func (m *Meter) TotalRedundant() uint64 { return m.totalFrames - m.totalContent }

// CompareTime returns the accumulated modeled CPU time spent comparing.
func (m *Meter) CompareTime() sim.Time { return m.compareTime }

// GridSamples returns the number of pixels compared per frame.
func (m *Meter) GridSamples() int { return m.cfg.Grid.Samples() }
