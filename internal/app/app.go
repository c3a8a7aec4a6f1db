// Package app provides the application workload models standing in for the
// 30 commercial Android applications of the paper's evaluation (15 general
// applications and 15 games from the Google Play Top Charts, §2.2).
//
// Each model renders real pixels into its surface so the content-rate
// meter classifies frames by actual comparison, and reproduces the
// behavioural taxonomy of Figure 3:
//
//   - general applications mostly hold a static image, with content bursts
//     on user interaction (Facebook-like), while ~40% of them continuously
//     request redundant frame updates (Cash Slide, Daum Maps),
//   - games request ~60 fps of frame updates regardless of how fast their
//     content actually changes, so most carry >20 redundant fps.
//
// A model runs a 60 Hz pacer that advances two independent accumulators —
// the content clock (how often pixels genuinely change) and the invalidate
// clock (how often the app requests a frame). Both switch to interaction
// values while the user touches the screen and decay back over an
// interaction tail, which produces the Figure 2 trace shapes.
package app

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"ccdem/internal/framebuffer"
	"ccdem/internal/input"
	"ccdem/internal/sim"
	"ccdem/internal/surface"
	"ccdem/internal/trace"
)

// Category splits the population as the paper does.
type Category int

// Application categories. AnyCategory is a filter wildcard.
const (
	General Category = iota
	Game
	AnyCategory Category = -1
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case General:
		return "general"
	case Game:
		return "game"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// PaintStyle selects how content changes translate into pixels.
type PaintStyle int

// Paint styles used by the catalog.
const (
	// StyleFeed scrolls a list: each content advance shifts the content
	// area and paints newly exposed rows (browsers, feeds, maps panning).
	StyleFeed PaintStyle = iota
	// StyleSprites animates colored sprites across the screen (games).
	StyleSprites
	// StyleVideo repaints a letterboxed video area every content frame.
	StyleVideo
	// StylePulse repaints a small widget region (clocks, ad banners).
	StylePulse
)

// Params statically describes one application's behaviour.
type Params struct {
	Name string
	Cat  Category

	Style PaintStyle

	// IdleContentFPS and IdleInvalidateFPS govern steady state with no
	// finger on the screen; Touch* apply during interaction. Invalidate
	// rates below content rates are raised to the content rate.
	IdleContentFPS     float64
	IdleInvalidateFPS  float64
	TouchContentFPS    float64
	TouchInvalidateFPS float64
	// Tail is how long elevated rates decay back to idle after touch-up
	// (fling and animation run-out).
	Tail sim.Time

	// LullPeriod and LullDuration model menu, loading and death-screen
	// phases: every LullPeriod, content drops to LullContentFPS for
	// LullDuration while the app keeps invalidating at its usual rate.
	// High-content games (racers, runners) spend a meaningful share of a
	// session in such lulls, which is where even they save power in the
	// paper's Figure 9. Zero disables lulls.
	LullPeriod     sim.Time
	LullDuration   sim.Time
	LullContentFPS float64

	// FullScreenRender marks apps (games, video) whose GPU pass redraws
	// the whole frame regardless of what changed — the expensive kind of
	// redundant frame.
	FullScreenRender bool
	// RedundantRenderPx is the GPU cost of re-rendering an unchanged
	// frame for partial renderers (ignored when FullScreenRender).
	RedundantRenderPx int
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("app: empty name")
	}
	for _, v := range []float64{p.IdleContentFPS, p.IdleInvalidateFPS, p.TouchContentFPS, p.TouchInvalidateFPS} {
		if v < 0 || v > 240 {
			return fmt.Errorf("app %s: rate %v out of range", p.Name, v)
		}
	}
	if p.Tail < 0 {
		return fmt.Errorf("app %s: negative tail", p.Name)
	}
	if p.LullPeriod < 0 || p.LullDuration < 0 || p.LullContentFPS < 0 {
		return fmt.Errorf("app %s: negative lull configuration", p.Name)
	}
	if p.LullPeriod > 0 && p.LullDuration >= p.LullPeriod {
		return fmt.Errorf("app %s: lull duration %v not below period %v", p.Name, p.LullDuration, p.LullPeriod)
	}
	if p.RedundantRenderPx < 0 {
		return fmt.Errorf("app %s: negative redundant render cost", p.Name)
	}
	return nil
}

// pacerHz is the model's internal clock. It matches the maximum refresh
// rate, so content and invalidate rates up to 60 fps are representable.
const pacerHz = 60.0

// Model is a running application instance bound to a surface.
type Model struct {
	p     Params
	eng   *sim.Engine
	srf   *surface.Surface
	w, h  int
	rng   *rand.Rand // name-seeded; built lazily (only sprite apps draw)
	saltV uint64     // cached salt(): FNV-1a of the app name

	// Interaction state.
	touching  bool
	lastTouch sim.Time
	touchY    int

	// Content state.
	contentSeq uint64 // advances whenever pixels should change
	drawnSeq   uint64 // last contentSeq actually painted
	contentAcc float64
	invAcc     float64

	// Painter state.
	scrollPos   int
	sprites     []spriteState
	prevSprites []spriteState
	damage      framebuffer.Region // damage of the current render
	batch       []framebuffer.Rect // the painters' FillRects batch, reused
	batchColors []framebuffer.Color

	// State memoization (see initcache.go): on a tile-tracked surface,
	// early content states alias memoized palette-compressed screens
	// instead of repainting them.
	memoHits   uint64
	memoMisses uint64

	// noDraw: nothing reads the surface's pixels (see SetDraw).
	noDraw bool

	// Ground truth for the display-quality metric: content updates the
	// app intended to show, independent of what the refresh rate let
	// through.
	intended      *trace.RateCounter
	intendedTotal uint64

	pacer *sim.Ticker
	stall func(sim.Time) bool
}

type spriteState struct {
	x, y, dx, dy int
}

// New validates params and creates an unstarted model. The rng seed is
// derived from the app name so every run of the same app is identical.
func New(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	return &Model{
		p:        p,
		saltV:    h.Sum64(),
		intended: trace.NewRateCounter(sim.Second),
	}, nil
}

// ensureRNG builds the name-seeded rng on first use. Seeding a Go rand
// source costs ~600 multiplies, so non-sprite apps — which never draw —
// skip it entirely; the seed is unchanged, so draws are identical to the
// previously eager construction.
func (m *Model) ensureRNG() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(int64(m.saltV)))
	}
	return m.rng
}

// Params returns the model's static description.
func (m *Model) Params() Params { return m.p }

// Name returns the application name.
func (m *Model) Name() string { return m.p.Name }

// Attach binds the model to an engine and a surface manager, creating its
// surface and starting the 60 Hz pacer. It must be called exactly once.
func (m *Model) Attach(eng *sim.Engine, mgr *surface.Manager) {
	if m.eng != nil {
		panic("app: Attach called twice")
	}
	m.eng = eng
	m.w = mgr.Framebuffer().Width()
	m.h = mgr.Framebuffer().Height()
	m.srf = mgr.NewSurface(m.p.Name, 1, m)
	m.initPaint()
	m.srf.RequestFrame() // first frame shows the initial screen
	m.pacer = eng.Every(eng.Now()+sim.Hz(pacerHz), sim.Hz(pacerHz), m.tick)
}

// Stop halts the model's pacer.
func (m *Model) Stop() {
	if m.pacer != nil {
		m.pacer.Stop()
		m.pacer = nil
	}
}

// Pause backgrounds the app: its pacer stops, so it neither advances
// content nor requests frames; its last frame stays on screen. Android
// apps behave the same way through onPause.
func (m *Model) Pause() { m.Stop() }

// Resume foregrounds a paused app, restarting its content and invalidate
// clocks and requesting an immediate frame (apps redraw on onResume).
func (m *Model) Resume() {
	if m.pacer != nil {
		return // already running
	}
	if m.eng == nil {
		panic("app: Resume before Attach")
	}
	m.srf.RequestFrame()
	m.pacer = m.eng.Every(m.eng.Now()+sim.Hz(pacerHz), sim.Hz(pacerHz), m.tick)
}

// Paused reports whether the model is currently backgrounded.
func (m *Model) Paused() bool { return m.pacer == nil && m.eng != nil }

// SetStall installs a render-stall hook (fault injection): while it
// returns true the UI thread is blocked — neither the content clock nor
// the invalidate clock advances, so no frames are requested. Nil (the
// default) disables injection.
func (m *Model) SetStall(fn func(sim.Time) bool) { m.stall = fn }

// SetDraw selects whether the model writes pixels; it draws by default.
// A device on which nothing reads pixels (no content meter and no
// luminance-sampling panel) turns drawing off before Attach. The model
// then advances its content state and reports the same damage regions
// and render costs, so dirty-pixel and render accounting are unchanged,
// but leaves its surface buffer unwritten and bypasses the state memo.
func (m *Model) SetDraw(on bool) { m.noDraw = !on }

// Surface exposes the model's surface for statistics.
func (m *Model) Surface() *surface.Surface { return m.srf }

// MemoStats returns the model's lifetime state-memo hit and miss counts.
// Both are zero on a plain surface buffer, where the state memo is off,
// on a model that does not draw, and once content has advanced past the
// memoizable window.
func (m *Model) MemoStats() (hits, misses uint64) { return m.memoHits, m.memoMisses }

// HandleTouch feeds a touch event to the model (wire it to the input
// replayer).
func (m *Model) HandleTouch(ev input.Event) {
	now := m.eng.Now()
	switch ev.Kind {
	case input.TouchDown:
		m.touching = true
		m.touchY = ev.Y
	case input.TouchMove:
		m.touchY = ev.Y
	case input.TouchUp:
		m.touching = false
	}
	m.lastTouch = now
}

// activity returns the interaction intensity in [0,1]: 1 while touching,
// linearly decaying to 0 over the tail after the last touch.
func (m *Model) activity(now sim.Time) float64 {
	if m.touching {
		return 1
	}
	if m.p.Tail <= 0 || m.lastTouch == 0 {
		return 0
	}
	since := now - m.lastTouch
	if since >= m.p.Tail {
		return 0
	}
	return 1 - float64(since)/float64(m.p.Tail)
}

// inLull reports whether the app is in a menu/loading phase at time t.
// The phase offset is derived per app so catalog apps do not lull in
// lockstep.
func (m *Model) inLull(t sim.Time) bool {
	if m.p.LullPeriod <= 0 {
		return false
	}
	offset := sim.Time(m.salt() % uint64(m.p.LullPeriod))
	return (t+offset)%m.p.LullPeriod < m.p.LullDuration
}

// rates returns the current (content, invalidate) target rates.
func (m *Model) rates(now sim.Time) (content, invalidate float64) {
	a := m.activity(now)
	content = m.p.IdleContentFPS + a*(m.p.TouchContentFPS-m.p.IdleContentFPS)
	invalidate = m.p.IdleInvalidateFPS + a*(m.p.TouchInvalidateFPS-m.p.IdleInvalidateFPS)
	if m.inLull(now) && content > m.p.LullContentFPS {
		content = m.p.LullContentFPS
	}
	if invalidate < content {
		invalidate = content
	}
	return content, invalidate
}

func (m *Model) tick() {
	now := m.eng.Now()
	if m.stall != nil && m.stall(now) {
		return // UI thread blocked: both clocks freeze
	}
	content, invalidate := m.rates(now)

	m.contentAcc += content / pacerHz
	if m.contentAcc >= 1 {
		// At most one advance per pacer tick: intended content is capped
		// at 60 fps, what a 60 Hz baseline could ever display.
		m.contentAcc -= 1
		if m.contentAcc > 1 {
			m.contentAcc = 1
		}
		m.advanceContent()
		m.intended.Note(now)
		m.intendedTotal++
	}

	m.invAcc += invalidate / pacerHz
	if m.invAcc >= 1 {
		m.invAcc -= 1
		if m.invAcc > 1 {
			m.invAcc = 1
		}
		m.srf.RequestFrame()
	}
}

// IntendedRate returns the app's actual content rate (fps) over the last
// second — the denominator of the paper's display-quality metric.
func (m *Model) IntendedRate(now sim.Time) float64 { return m.intended.Rate(now) }

// IntendedTotal returns the lifetime count of intended content updates.
func (m *Model) IntendedTotal() uint64 { return m.intendedTotal }

// RenderRegion implements surface.Client: the manager calls it at
// V-Sync when a requested frame is due. The returned region lists every
// damaged rectangle (sprite erases and draws separately), so dirty-pixel
// accounting does not overestimate via bounding boxes.
func (m *Model) RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int) {
	m.damage.Reset()
	if m.drawnSeq == m.contentSeq {
		// Redundant frame: the app re-renders pixel-identical content.
		cost := m.p.RedundantRenderPx
		if m.p.FullScreenRender {
			cost = m.w * m.h
		}
		return &m.damage, cost
	}
	m.paint(buf)
	m.drawnSeq = m.contentSeq
	cost := m.damage.Area()
	if m.p.FullScreenRender {
		cost = m.w * m.h
	}
	return &m.damage, cost
}
