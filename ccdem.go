// Package ccdem is a full-system reproduction of "Content-centric Display
// Energy Management for Mobile Devices" (Kim, Jung, Cha — DAC 2014).
//
// The paper's scheme measures the content rate — the number of frames per
// second whose pixels genuinely change — by comparing a sparse grid of
// framebuffer samples against the previous frame (double buffering), and
// drives the panel's refresh rate from it through a section table with
// headroom, boosted to maximum on touch events. The result is display-path
// power reduction with negligible display-quality loss.
//
// Because the original runs on a kernel-modified Samsung Galaxy S3 LTE
// driven by Monkey scripts and measured with a Monsoon power monitor, this
// package ships the whole substrate as a deterministic simulation: an
// Android-style surface manager with V-Sync-gated composition, a panel
// with the S3's five refresh levels, a component power model with a
// Monsoon-style sampler, 30 application workload models, and a Monkey
// script generator. See DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for paper-vs-measured results for every figure and table.
//
// The entry point is Device:
//
//	dev, err := ccdem.NewDevice(ccdem.Config{Governor: ccdem.GovernorSectionBoost})
//	...
//	params, _ := app.ByName("Jelly Splash")
//	model, err := dev.InstallApp(params)
//	dev.PlayScript(script)
//	dev.Run(60 * sim.Second)
//	stats := dev.Stats()
package ccdem

import (
	"fmt"

	"ccdem/internal/app"
	"ccdem/internal/core"
	"ccdem/internal/display"
	"ccdem/internal/fault"
	"ccdem/internal/framebuffer"
	"ccdem/internal/input"
	"ccdem/internal/obs"
	"ccdem/internal/power"
	"ccdem/internal/sim"
	"ccdem/internal/surface"
	"ccdem/internal/trace"
	"ccdem/internal/wallpaper"
)

// GovernorMode selects the refresh-rate management policy — the paper's
// three measured configurations.
type GovernorMode int

// Governor modes.
const (
	// GovernorOff is the Android baseline: fixed maximum refresh rate.
	GovernorOff GovernorMode = iota
	// GovernorSection enables section-based refresh control only.
	GovernorSection
	// GovernorSectionBoost enables section control plus touch boosting
	// (the paper's full system).
	GovernorSectionBoost
	// GovernorNaive is the paper's discarded first design (§3.2): refresh
	// set to the smallest level covering the measured content rate, with
	// no headroom. Kept as an ablation — it ratchets downward because
	// V-Sync hides content above the current refresh rate.
	GovernorNaive
	// GovernorE3 is the related-work comparison baseline (Han et al.,
	// SenSys 2013 — the paper's reference [16]): interaction-aware
	// frame-rate adaptation. The panel stays at maximum refresh; the
	// latch pace is throttled toward the content rate instead. It saves
	// render energy on redundant frames but none of the
	// refresh-proportional panel power.
	GovernorE3
	// GovernorIdleTimeout is the content-blind adaptive-refresh policy of
	// later production phones: maximum rate while touching (plus a
	// timeout), minimum rate when idle, no framebuffer metering. Kept as
	// a comparison showing why content awareness matters for autonomous
	// content (video, games).
	GovernorIdleTimeout
)

// String implements fmt.Stringer.
func (g GovernorMode) String() string {
	switch g {
	case GovernorOff:
		return "baseline"
	case GovernorSection:
		return "section"
	case GovernorSectionBoost:
		return "section+boost"
	case GovernorNaive:
		return "naive"
	case GovernorE3:
		return "e3-framerate"
	case GovernorIdleTimeout:
		return "idle-timeout"
	default:
		return fmt.Sprintf("mode(%d)", int(g))
	}
}

// readsMeter reports whether the mode's policy reads the content meter:
// every mode but the baseline and the content-blind idle timeout.
func (g GovernorMode) readsMeter() bool {
	return g != GovernorOff && g != GovernorIdleTimeout
}

// Config assembles a simulated device. The zero value, after defaulting,
// is the paper's experimental platform: a 720×1280 Galaxy S3 LTE panel
// with refresh levels {20,24,30,40,60} Hz at 50% brightness, metering on
// the 9K grid with a 1 s window, 500 ms control period and 300 ms boost hold.
type Config struct {
	Width, Height int   // screen size; default 720×1280
	RefreshLevels []int // supported rates; default display.GalaxyS3Levels
	// FastUpswitch marks LTPO-class panels that can raise the refresh
	// rate mid-interval; the paper's S3 cannot (default false).
	FastUpswitch bool

	Brightness float64 // backlight 0..1; 0 defaults to the paper's 50%

	// MeterSamples is the comparison grid size; default 9216 (9K). A
	// negative value turns the content meter off, the lean-mode
	// counterpart to a negative PowerSampleInterval or TraceInterval: no
	// frame is compared or charged for, the meter-derived Stats fields
	// (ContentRate, RedundantRate, DisplayQuality, DroppedFPS) read zero,
	// the Content and Frame traces stay empty, and frame-log records carry
	// Content false. Without a meter or an OLED panel (whose power model
	// samples luminance) nothing reads a pixel, so installed apps draw
	// none (app.Model.SetDraw); frames, damage and render costs are
	// unchanged, so a GovernorOff device's power, refresh and ground-truth
	// rates are bit-identical to a metered one's. Governor modes that read
	// the meter (section, section+boost, naive, E3) reject it.
	MeterSamples int

	MeterWindow   sim.Time // rate window; default 1 s
	ControlPeriod sim.Time // governor period; default 500 ms
	BoostHold     sim.Time // boost hold after last touch; default 300 ms

	// MeterEarlyExit stops grid comparison at the first differing sample
	// (extension; classification unchanged, metering cost reduced).
	MeterEarlyExit bool
	// NaivePixels forces the pre-tile brute-force pixel pipeline: plain
	// buffers, full-rect composition blits and full-lattice grid
	// comparison on every frame. It is the device's one pixel-pipeline
	// switch (surface.Manager.SetTiles). The default (false) runs the tile
	// pipeline: every buffer tracks palette-compressed tiles, a sole
	// full-screen surface is scanned out directly, and the meter's
	// tile-delta comparison and the app state memo follow from the
	// buffers they see. Framebuffer contents, meter verdicts, decision
	// traces and statistics are bit-identical either way; the naive path
	// is kept as the one differential-testing oracle, mirroring the
	// lean-mode pattern of the negative trace/sample intervals.
	NaivePixels bool
	// DownHysteresis requires this many consecutive down indications
	// before the governor lowers the rate (extension; 0 = paper's
	// behaviour).
	DownHysteresis int

	Governor GovernorMode

	PowerParams *power.Params // nil defaults to power.DefaultParams()
	// PowerSampleInterval is the Monsoon-style sampling period; 0 defaults
	// to 100 ms. A negative value disables the sampler entirely — Stats
	// then reports the model's lifetime mean instead of a sample mean, and
	// Traces carries no power samples. Benchmarks use this to measure the
	// steady-state frame path without recorder appends.
	PowerSampleInterval sim.Time
	// TraceInterval is the rate/refresh trace sampling period; 0 defaults
	// to 250 ms. A negative value disables trace recording (Traces series
	// stay empty), the benchmark-lean counterpart to PowerSampleInterval.
	TraceInterval sim.Time

	// Recorder, if non-nil, receives the device's decision events (frame
	// latches, grid compares, section transitions, touch boosts). Nil —
	// the default — disables event recording entirely: no hooks beyond a
	// nil check are installed and the simulation is byte-identical.
	Recorder *obs.Recorder
	// Metrics, if non-nil, receives the device's counters, gauges and
	// histograms. Live hooks feed the compare-cost and decision histograms
	// and refresh-level residency during the run; FinishObs snapshots the
	// lifetime totals at the end. Nil disables metrics entirely.
	Metrics *obs.Registry

	// Faults, if non-nil, injects deterministic faults into the device's
	// panel switching, content metering, touch delivery and app pacing
	// (see internal/fault). Nil — the default — installs no hooks.
	Faults *fault.Injector
	// Hardening, if non-nil, enables the governor's fail-safe hardening
	// (verified switches with retry, anomaly watchdog pinning maximum
	// refresh). Only meaningful for the core.Governor modes (section,
	// section+boost, naive).
	Hardening *core.HardeningConfig
}

func (c *Config) applyDefaults() {
	if c.Width == 0 {
		c.Width = 720
	}
	if c.Height == 0 {
		c.Height = 1280
	}
	if c.RefreshLevels == nil {
		c.RefreshLevels = display.GalaxyS3Levels
	}
	if c.Brightness == 0 {
		c.Brightness = 0.5
	}
	if c.MeterSamples == 0 {
		c.MeterSamples = 9216
	}
	if c.MeterWindow == 0 {
		c.MeterWindow = sim.Second
	}
	if c.ControlPeriod == 0 {
		c.ControlPeriod = 500 * sim.Millisecond
	}
	if c.BoostHold == 0 {
		c.BoostHold = 300 * sim.Millisecond
	}
	if c.PowerParams == nil {
		p := power.DefaultParams()
		c.PowerParams = &p
	}
	if c.PowerSampleInterval == 0 {
		c.PowerSampleInterval = 100 * sim.Millisecond
	}
	if c.TraceInterval == 0 {
		c.TraceInterval = 250 * sim.Millisecond
	}
	// Negative intervals mean "disabled" and pass through unchanged.
}

// Device is a fully assembled simulated phone: panel, surface manager,
// power model, optional governor, and the workloads installed on it.
type Device struct {
	cfg Config

	eng      *sim.Engine
	panel    *display.Panel
	mgr      *surface.Manager
	model    *power.Model
	pwrMeter *power.Meter
	meter    *core.Meter
	gov      *core.Governor
	limiter  *core.FrameLimiter
	idleGov  *core.IdleGovernor
	replayer *input.Replayer

	apps       []*app.Model
	wallpapers []*wallpaper.Wallpaper

	started   bool
	recording bool
	frameLog  []core.FrameRecord

	// displayedContent counts latched frames that visibly changed the
	// screen (DirtyPixels > 0) — the meter-independent ground truth
	// behind Stats.TrueQuality.
	displayedContent uint64

	obsDone     bool
	obsLastRate int      // rate whose residency interval is open
	obsRateT    sim.Time // start of that interval

	// Recorded traces (sampled every TraceInterval).
	contentTrace  *trace.Series
	frameTrace    *trace.Series
	refreshTrace  *trace.Series
	intendedTrace *trace.Series

	oled bool
	// Per-frame OLED luminance scratch (built once when the panel is OLED).
	lumaGrid framebuffer.Grid
	lumaBuf  []framebuffer.Color

	// grid is the meter's comparison lattice, cached so Reset can reuse it
	// when the screen and sample count are unchanged; gridN is the
	// MeterSamples it was built for. Both survive meter-off runs, as do the
	// meter's lattice and rate rings, so a recycled device alternating
	// meter-off and metered runs allocates none of them again.
	grid  framebuffer.Grid
	gridN int
}

// NewDevice assembles a device from cfg (defaults applied).
func NewDevice(cfg Config) (*Device, error) {
	d := &Device{}
	if err := d.init(cfg, false); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset reinitializes the device in place for a new run under cfg, as if
// freshly constructed by NewDevice, while reusing every large allocation:
// the engine's event pool, the framebuffer, detached surface buffers, the
// meter's double-buffered lattice and rate-counter rings, the comparison
// grid and trace/sample storage (when dimensions, sample counts and
// windows are unchanged — the steady-state fleet path). This is what lets
// a cohort run one device per worker across millions of tasks with a
// per-task allocation cost that approaches the input script alone.
//
// The framebuffer and reused surface buffers come back blank, as a fresh
// device's do (surface.Manager.Reset), and the meter's comparison history
// is discarded, so a reset device is bit-identical to a fresh one. (Apps
// on a meter-off device paint nothing, but nothing reads their pixels
// either; see Config.MeterSamples.)
//
// All objects previously obtained from the device (apps, surfaces,
// governor, tickers, handles) are invalidated. On error the device is in
// an unspecified state and must not be reused.
func (d *Device) Reset(cfg Config) error { return d.init(cfg, true) }

// init builds (reuse=false) or recycles (reuse=true) the device's full
// object graph from cfg.
func (d *Device) init(cfg Config, reuse bool) error {
	cfg.applyDefaults()
	if cfg.Brightness < 0 || cfg.Brightness > 1 {
		return fmt.Errorf("ccdem: brightness %v out of [0,1]", cfg.Brightness)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return fmt.Errorf("ccdem: invalid screen %dx%d", cfg.Width, cfg.Height)
	}
	metered := cfg.MeterSamples > 0
	if !metered && cfg.Governor.readsMeter() {
		return fmt.Errorf("ccdem: governor %v reads the content meter, which MeterSamples %d turns off", cfg.Governor, cfg.MeterSamples)
	}
	// d.cfg still holds the previous run's config; this decides which
	// dimension-keyed allocations survive the reset.
	sameScreen := reuse && d.cfg.Width == cfg.Width && d.cfg.Height == cfg.Height

	if reuse {
		d.eng.Reset()
	} else {
		d.eng = sim.NewEngine()
	}
	panelCfg := display.Config{
		Levels:       cfg.RefreshLevels,
		FastUpswitch: cfg.FastUpswitch,
	}
	if reuse {
		if err := d.panel.Reset(panelCfg); err != nil {
			return err
		}
	} else {
		panel, err := display.NewPanel(d.eng, panelCfg)
		if err != nil {
			return err
		}
		d.panel = panel
	}
	if sameScreen {
		d.mgr.Reset()
	} else {
		d.mgr = surface.NewManager(d.eng, cfg.Width, cfg.Height)
	}
	// The one pipeline switch: the meter's delta path and the app state
	// memo follow from whether the buffers they see track tiles.
	d.mgr.SetTiles(!cfg.NaivePixels)
	if reuse {
		if err := d.model.Reset(*cfg.PowerParams, d.panel.Rate(), cfg.Brightness); err != nil {
			return err
		}
	} else {
		model, err := power.NewModel(d.eng, *cfg.PowerParams, d.panel.Rate(), cfg.Brightness)
		if err != nil {
			return err
		}
		d.model = model
	}
	if cfg.PowerSampleInterval > 0 {
		if reuse && d.pwrMeter != nil {
			if err := d.pwrMeter.Reset(cfg.PowerSampleInterval); err != nil {
				return err
			}
		} else {
			pwrMeter, err := power.NewMeter(d.eng, d.model, cfg.PowerSampleInterval)
			if err != nil {
				return err
			}
			d.pwrMeter = pwrMeter
		}
	} else {
		d.pwrMeter = nil
	}
	// Under a policy that does not read the meter (the baseline and the
	// idle timeout) the meter still observes frames so the reported
	// statistics are comparable, but — like the paper's offline §2.2
	// analysis — it charges no energy: such a system runs no metering.
	var onCompare func(sim.Time)
	if cfg.Governor.readsMeter() {
		onCompare = d.model.MeterCompare
	}
	if h := cfg.Metrics.Histogram("compare_cost_us", obs.CompareCostBucketsUS); h != nil {
		inner := onCompare
		onCompare = func(d sim.Time) {
			h.Observe(float64(d))
			if inner != nil {
				inner(d)
			}
		}
	}
	if metered {
		if w, h := d.grid.ScreenDims(); w != cfg.Width || h != cfg.Height || d.gridN != cfg.MeterSamples {
			d.grid = framebuffer.GridForSamples(cfg.Width, cfg.Height, cfg.MeterSamples)
			d.gridN = cfg.MeterSamples
		}
		meterCfg := core.MeterConfig{
			Grid:      d.grid,
			Window:    cfg.MeterWindow,
			Cost:      power.DefaultCompareCost(),
			OnCompare: onCompare,
			EarlyExit: cfg.MeterEarlyExit,
			Recorder:  cfg.Recorder,
		}
		if cfg.Faults != nil {
			meterCfg.Fault = cfg.Faults.MeterHook
		}
		if d.meter != nil {
			if err := d.meter.Reset(meterCfg); err != nil {
				return err
			}
		} else {
			meter, err := core.NewMeter(meterCfg)
			if err != nil {
				return err
			}
			d.meter = meter
		}
	}
	if reuse {
		d.replayer.Reset()
		d.contentTrace.Reset()
		d.frameTrace.Reset()
		d.refreshTrace.Reset()
		d.intendedTrace.Reset()
	} else {
		d.replayer = input.NewReplayer(d.eng)
		d.contentTrace = trace.NewSeries("content rate (fps)")
		d.frameTrace = trace.NewSeries("frame rate (fps)")
		d.refreshTrace = trace.NewSeries("refresh rate (Hz)")
		d.intendedTrace = trace.NewSeries("actual content rate (fps)")
	}

	d.cfg = cfg
	d.gov = nil
	d.limiter = nil
	d.idleGov = nil
	clear(d.apps)
	d.apps = d.apps[:0]
	clear(d.wallpapers)
	d.wallpapers = d.wallpapers[:0]
	d.started = false
	d.recording = false
	d.frameLog = d.frameLog[:0]
	d.displayedContent = 0
	d.obsDone = false
	d.obsLastRate = 0
	d.obsRateT = 0

	_, d.oled = cfg.PowerParams.Panel.(power.OLEDPanel)
	if d.oled && (d.lumaBuf == nil || !sameScreen) {
		// The OLED luminance estimate runs on every latched frame; build
		// its coarse lattice and scratch buffer once so the frame path
		// stays allocation-free.
		d.lumaGrid = framebuffer.GridForSamples(cfg.Width, cfg.Height, lumaSamples)
		d.lumaBuf = make([]framebuffer.Color, d.lumaGrid.Samples())
	}

	panel, mgr, model, meter := d.panel, d.mgr, d.model, d.Meter()

	// Observability wiring. Every hook below is gated on the corresponding
	// sink being non-nil, so a device without obs installs nothing extra
	// and simulates byte-identically.
	mgr.SetRecorder(cfg.Recorder)
	panel.SetRecorder(cfg.Recorder)
	d.replayer.SetRecorder(cfg.Recorder)
	if cfg.Faults != nil {
		cfg.Faults.Bind(cfg.Recorder)
		panel.SetSwitchFault(cfg.Faults.PanelSwitch)
		d.replayer.SetFault(cfg.Faults.TouchFault)
	}
	if cfg.Metrics != nil {
		d.obsLastRate = panel.Rate()
		panel.OnRateChange(func(t sim.Time, _, newHz int) {
			d.flushResidency(t)
			d.obsLastRate = newHz
		})
		touches := cfg.Metrics.Counter("touch_events_total")
		d.replayer.Subscribe(func(input.Event) { touches.Inc() })
	}

	// Compose → framebuffer observers: render-cost accounting and — when
	// the governor is on — the content meter. The baseline configuration
	// also meters (read-only) so frame/content statistics are comparable,
	// matching how the paper measures meaningful frame rates of unmanaged
	// apps in §2.2, unless MeterSamples turns the meter off.
	panel.OnVSync(mgr.VSync)
	mgr.OnFrame(func(fi surface.FrameInfo) {
		model.FrameRendered(fi.RenderedPx)
		if fi.DirtyPixels > 0 {
			// Ground truth for TrueQuality: the frame visibly changed the
			// screen, whatever the (possibly faulted) meter concluded.
			d.displayedContent++
		}
		if d.gov != nil {
			d.gov.NoteFrame(fi.DirtyPixels)
		}
		content := false
		if meter != nil {
			content = meter.ObserveFrame(fi.T, mgr.Framebuffer())
		}
		if d.recording {
			d.frameLog = append(d.frameLog, core.FrameRecord{
				T: fi.T, Content: content, RenderedPx: fi.RenderedPx,
			})
		}
		if d.oled {
			model.SetMeanLuminance(d.sampleLuma(mgr.Framebuffer()))
		}
	})
	panel.OnRateChange(func(_ sim.Time, _, newHz int) { model.SetRefreshRate(newHz) })

	switch cfg.Governor {
	case GovernorOff:
		// Android baseline: nothing to manage.
	case GovernorE3:
		limiter, err := core.NewFrameLimiter(d.eng, meter, core.FrameLimiterConfig{
			MaxFPS:          float64(panel.MaxRate()),
			ControlPeriod:   cfg.ControlPeriod,
			InteractionHold: cfg.BoostHold,
		})
		if err != nil {
			return err
		}
		d.limiter = limiter
		mgr.SetLatchGate(limiter.Gate)
		d.replayer.Subscribe(limiter.HandleTouch)
	case GovernorIdleTimeout:
		idleGov, err := core.NewIdleGovernor(d.eng, panel, core.IdleGovernorConfig{
			IdleTimeout: cfg.BoostHold * 5, // timeout scale: several boost holds
			CheckPeriod: cfg.ControlPeriod,
		})
		if err != nil {
			return err
		}
		d.idleGov = idleGov
		d.replayer.Subscribe(idleGov.HandleTouch)
	default:
		policy := core.PolicySection
		if cfg.Governor == GovernorNaive {
			policy = core.PolicyNaive
		}
		gov, err := core.NewGovernor(d.eng, panel, meter, core.GovernorConfig{
			Policy:         policy,
			ControlPeriod:  cfg.ControlPeriod,
			BoostEnabled:   cfg.Governor == GovernorSectionBoost,
			BoostHold:      cfg.BoostHold,
			DownHysteresis: cfg.DownHysteresis,
			Recorder:       cfg.Recorder,
			Hardening:      cfg.Hardening,
		})
		if err != nil {
			return err
		}
		if h := cfg.Metrics.Histogram("decision_content_rate_fps", obs.RateBucketsFPS); h != nil {
			gov.OnDecision(func(dec core.Decision) { h.Observe(dec.ContentRate) })
		}
		d.gov = gov
		d.replayer.Subscribe(gov.HandleTouch)
	}
	return nil
}

// flushResidency closes the open refresh-level residency interval at t,
// crediting its duration to the per-level counter.
func (d *Device) flushResidency(t sim.Time) {
	if span := t - d.obsRateT; span > 0 {
		d.cfg.Metrics.Counter(fmt.Sprintf("refresh_residency_us_hz%d", d.obsLastRate)).Add(uint64(span))
	}
	d.obsRateT = t
}

// lumaSamples is the size of the coarse luminance lattice: resampling the
// full buffer would duplicate the meter's work; ~1K points are plenty for
// the panel model.
const lumaSamples = 1024

// sampleLuma estimates mean screen luminance from the device's coarse
// lattice, cheap enough (and allocation-free) to run per frame.
func (d *Device) sampleLuma(fb *framebuffer.Buffer) float64 {
	d.lumaGrid.Sample(fb, d.lumaBuf)
	sum := 0.0
	for _, c := range d.lumaBuf {
		sum += c.Luminance()
	}
	return sum / float64(len(d.lumaBuf))
}

// Engine exposes the simulation engine (for scheduling custom events in
// examples and tests).
func (d *Device) Engine() *sim.Engine { return d.eng }

// Panel exposes the display panel.
func (d *Device) Panel() *display.Panel { return d.panel }

// SurfaceManager exposes the composition layer.
func (d *Device) SurfaceManager() *surface.Manager { return d.mgr }

// Meter exposes the content-rate meter (nil when MeterSamples turns it
// off).
func (d *Device) Meter() *core.Meter {
	if d.cfg.MeterSamples < 0 {
		return nil // d.meter waits, as configured, for the next metered run
	}
	return d.meter
}

// Governor exposes the refresh governor (nil unless a refresh-control
// mode is active).
func (d *Device) Governor() *core.Governor { return d.gov }

// FrameLimiter exposes the E3-style frame limiter (nil unless GovernorE3).
func (d *Device) FrameLimiter() *core.FrameLimiter { return d.limiter }

// PowerModel exposes the energy model.
func (d *Device) PowerModel() *power.Model { return d.model }

// InstallApp instantiates an application workload on the device and wires
// it to the touch input path. The first installed app is the foreground
// app whose intended content rate defines display quality.
func (d *Device) InstallApp(p app.Params) (*app.Model, error) {
	m, err := app.New(p)
	if err != nil {
		return nil, err
	}
	// The meter and the OLED luminance sample are the only pixel readers.
	m.SetDraw(d.Meter() != nil || d.oled)
	m.Attach(d.eng, d.mgr)
	if d.cfg.Faults != nil {
		m.SetStall(d.cfg.Faults.AppStalled)
	}
	d.replayer.Subscribe(m.HandleTouch)
	d.apps = append(d.apps, m)
	return m, nil
}

// InstallWallpaper instantiates a live-wallpaper workload (used by the
// metering-accuracy experiments).
func (d *Device) InstallWallpaper(cfg wallpaper.Config) (*wallpaper.Wallpaper, error) {
	wp, err := wallpaper.New(cfg)
	if err != nil {
		return nil, err
	}
	wp.Attach(d.eng, d.mgr)
	d.wallpapers = append(d.wallpapers, wp)
	return wp, nil
}

// PlayScript schedules an input script starting at the current virtual
// time.
func (d *Device) PlayScript(s input.Script) { d.replayer.Play(s) }

// RecordFrames toggles frame-log recording. A recorded baseline log feeds
// core.PredictSection, the offline what-if estimator.
func (d *Device) RecordFrames(on bool) { d.recording = on }

// FrameLog returns the recorded frame log (nil when recording was never
// enabled). The slice is owned by the device.
func (d *Device) FrameLog() []core.FrameRecord { return d.frameLog }

// Run starts the device on first call (panel, power sampling, governor,
// trace recording) and advances the simulation by duration. It may be
// called repeatedly to run in increments.
func (d *Device) Run(duration sim.Time) {
	if !d.started {
		d.started = true
		d.cfg.Recorder.DeviceStart(d.eng.Now())
		d.panel.Start()
		if d.pwrMeter != nil {
			d.pwrMeter.Start()
		}
		if d.gov != nil {
			d.gov.Start()
		}
		if d.limiter != nil {
			d.limiter.Start()
		}
		if d.idleGov != nil {
			d.idleGov.Start()
		}
		if d.cfg.TraceInterval > 0 {
			d.eng.Every(d.eng.Now()+d.cfg.TraceInterval, d.cfg.TraceInterval, d.recordTraces)
		}
	}
	d.eng.RunUntil(d.eng.Now() + duration)
}

func (d *Device) recordTraces() {
	now := d.eng.Now()
	if meter := d.Meter(); meter != nil {
		d.contentTrace.Add(now, meter.ContentRate(now))
		d.frameTrace.Add(now, meter.FrameRate(now))
	}
	d.refreshTrace.Add(now, float64(d.panel.Rate()))
	intended := 0.0
	for _, m := range d.apps {
		intended += m.IntendedRate(now)
	}
	d.intendedTrace.Add(now, intended)
}

// Traces bundles the recorded time series of a run.
type Traces struct {
	Content  *trace.Series  // measured content rate (fps)
	Frame    *trace.Series  // measured frame rate (fps)
	Refresh  *trace.Series  // refresh rate (Hz)
	Intended *trace.Series  // app ground-truth content rate (fps)
	Power    []power.Sample // Monsoon-style power samples
}

// Stats summarizes a run, mirroring the quantities the paper reports.
type Stats struct {
	Mode     GovernorMode
	Duration sim.Time

	MeanPowerMW float64
	PowerStdMW  float64
	EnergyMJ    float64
	Breakdown   map[power.Component]float64

	FrameRate     float64 // mean framebuffer updates per second
	ContentRate   float64 // mean measured content rate (fps)
	RedundantRate float64 // FrameRate − ContentRate
	IntendedRate  float64 // app ground-truth content rate (fps)

	// DisplayQuality is the paper's metric: estimated content rate over
	// actual content rate, in [0,1]. It is computed from the *meter's*
	// content count, so a faulted meter corrupts it.
	DisplayQuality float64
	// DroppedFPS is the mean rate of intended content updates that never
	// reached the screen.
	DroppedFPS float64

	// DisplayedRate is the rate of latched frames that visibly changed
	// the screen — ground truth independent of the meter.
	DisplayedRate float64
	// TrueQuality is DisplayedRate over IntendedRate, in [0,1]: the
	// fraction of intended content updates that actually reached the
	// screen. Under fault injection this is the honest quality metric;
	// without faults it tracks DisplayQuality.
	TrueQuality float64

	MeanRefreshHz   float64
	RefreshSwitches uint64
	BoostCount      uint64

	// Robustness accounting (zero without fault injection / hardening).
	FaultsInjected uint64   // faults the injector fired
	SwitchRetries  uint64   // panel switch requests re-issued
	FailSafeEnters uint64   // fail-safe episodes entered
	FailSafeExits  uint64   // fail-safe episodes cleanly recovered
	FailSafeTime   sim.Time // cumulative time pinned at max refresh
}

// Stats computes the run summary so far.
func (d *Device) Stats() Stats {
	now := d.eng.Now()
	dur := now.Seconds()
	s := Stats{
		Mode:     d.cfg.Governor,
		Duration: now,
	}
	if dur <= 0 {
		return s
	}
	if d.pwrMeter != nil {
		s.MeanPowerMW = d.pwrMeter.MeanMW()
		s.PowerStdMW = trace.Std(d.pwrMeter.Values())
	} else {
		// Sampler disabled: fall back to the model's lifetime mean.
		s.MeanPowerMW = d.model.MeanPowerMW()
	}
	s.EnergyMJ = d.model.EnergyMJ()
	s.Breakdown = d.model.Breakdown()

	// Every latched frame is observed by the meter when it runs, so the
	// manager's count is the meter's frame count.
	s.FrameRate = float64(d.mgr.Frames()) / dur
	meter := d.Meter()
	var content uint64
	if meter != nil {
		_, content = meter.Totals()
		s.ContentRate = float64(content) / dur
		s.RedundantRate = s.FrameRate - s.ContentRate
	}

	var intended uint64
	for _, m := range d.apps {
		intended += m.IntendedTotal()
	}
	for _, wp := range d.wallpapers {
		intended += wp.ContentFrames()
	}
	s.IntendedRate = float64(intended) / dur
	switch {
	case meter == nil:
		// Meter off: no estimate, so no quality or drop figure.
	case intended > 0:
		q := float64(content) / float64(intended)
		if q > 1 {
			q = 1
		}
		s.DisplayQuality = q
		if drop := s.IntendedRate - s.ContentRate; drop > 0 {
			s.DroppedFPS = drop
		}
	default:
		s.DisplayQuality = 1
	}

	s.DisplayedRate = float64(d.displayedContent) / dur
	if intended > 0 {
		q := float64(d.displayedContent) / float64(intended)
		if q > 1 {
			q = 1
		}
		s.TrueQuality = q
	} else {
		s.TrueQuality = 1
	}

	s.MeanRefreshHz = d.panel.MeanRate()
	s.RefreshSwitches = d.panel.Switches()
	if d.gov != nil {
		s.BoostCount = d.gov.Booster().Touches()
		s.SwitchRetries = d.gov.SwitchRetries()
		s.FailSafeEnters = d.gov.FailSafeEnters()
		s.FailSafeExits = d.gov.FailSafeExits()
		s.FailSafeTime = d.gov.FailSafeTime()
	}
	s.FaultsInjected = d.cfg.Faults.Total()
	return s
}

// FinishObs closes out the device's observability at the end of a run: it
// records the DeviceEnd event, flushes the open refresh-residency interval,
// and snapshots the lifetime totals (frame, refresh, governor and power
// statistics) into the metrics registry. Call it once, after the last Run
// increment; with no Recorder or Metrics configured it does nothing. It
// never perturbs the simulation — a run with obs enabled behaves
// identically to one without.
func (d *Device) FinishObs() {
	if d.obsDone {
		return
	}
	d.obsDone = true
	now := d.eng.Now()
	d.cfg.Recorder.DeviceEnd(now)
	reg := d.cfg.Metrics
	if reg == nil {
		return
	}
	d.flushResidency(now)

	reg.Counter("frames_total").Add(d.mgr.Frames())
	var content, redundant uint64
	if meter := d.Meter(); meter != nil {
		_, content = meter.Totals()
		redundant = meter.TotalRedundant()
	}
	reg.Counter("content_frames_total").Add(content)
	reg.Counter("redundant_frames_total").Add(redundant)
	reg.Counter("vsync_refreshes_total").Add(d.panel.Refreshes())
	reg.Counter("refresh_switches_total").Add(d.panel.Switches())
	reg.Counter("deferred_latches_total").Add(d.mgr.DeferredLatches())
	reg.Counter("sim_time_us").Add(uint64(now))
	// Palette and memo counters are registered unconditionally so scrape
	// targets see the series (at zero) even on naive-pixels devices.
	palTiles, palPromos := d.mgr.PaletteStats()
	reg.Counter("fb_palette_tiles").Add(uint64(palTiles))
	reg.Counter("fb_palette_promotions_total").Add(palPromos)
	var memoHits, memoMisses uint64
	for _, m := range d.apps {
		h, ms := m.MemoStats()
		memoHits += h
		memoMisses += ms
	}
	reg.Counter("app_memo_hits_total").Add(memoHits)
	reg.Counter("app_memo_misses_total").Add(memoMisses)
	if d.gov != nil {
		reg.Counter("governor_decisions_total").Add(d.gov.Decisions())
		reg.Counter("touch_boosts_total").Add(d.gov.Booster().Touches())
		reg.Counter("boost_transitions_total").Add(d.gov.BoostTransitions())
		if d.gov.Hardened() {
			reg.Counter("panel_switch_retries_total").Add(d.gov.SwitchRetries())
			reg.Counter("failsafe_enters_total").Add(d.gov.FailSafeEnters())
			reg.Counter("failsafe_exits_total").Add(d.gov.FailSafeExits())
			reg.Counter("failsafe_time_us").Add(uint64(d.gov.FailSafeTime()))
		}
	}
	if d.cfg.Faults.Enabled() {
		counts := d.cfg.Faults.Counts()
		for _, c := range fault.Classes() {
			reg.Counter("faults_injected_total_" + c.String()).Add(counts[c])
		}
		reg.Counter("faults_injected_total").Add(d.cfg.Faults.Total())
	}

	s := d.Stats()
	reg.Gauge("mean_refresh_hz").Set(s.MeanRefreshHz)
	reg.Histogram("device_power_mw", obs.PowerBucketsMW).Observe(s.MeanPowerMW)
	reg.Histogram("device_quality_pct", obs.QualityBucketsPct).Observe(s.DisplayQuality * 100)
	reg.Histogram("device_refresh_hz", obs.RateBucketsFPS).Observe(s.MeanRefreshHz)
}

// Traces returns the recorded time series. With a negative
// PowerSampleInterval the Power slice is nil; with a negative TraceInterval
// the series are present but empty.
func (d *Device) Traces() Traces {
	tr := Traces{
		Content:  d.contentTrace,
		Frame:    d.frameTrace,
		Refresh:  d.refreshTrace,
		Intended: d.intendedTrace,
	}
	if d.pwrMeter != nil {
		tr.Power = d.pwrMeter.Samples()
	}
	return tr
}
