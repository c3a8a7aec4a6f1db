// Package surface reproduces the role of Android's Surface Manager
// (SurfaceFlinger) in the paper's Figure 1: applications render surfaces,
// the manager combines them and updates the framebuffer, and the display
// hardware independently refreshes the screen from that framebuffer.
//
// V-Sync is modeled the way Android's Project Butter works: a client that
// wants a frame requests one and is called back to render at the next
// vertical sync, so the achieved frame rate can never exceed the refresh
// rate. This V-Sync cap is load-bearing for the paper twice over: it is
// why lowering the refresh rate also eliminates redundant render work
// (the power win), and why the content rate cannot be *measured* above
// the current refresh rate (the blind spot touch boosting fixes).
package surface

import (
	"fmt"

	"ccdem/internal/framebuffer"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
)

// Client renders a surface's content on demand. Renderers that damage
// several disjoint areas (sprite games erase one spot and draw another)
// report them all, so composition blits and dirty-pixel accounting track
// the actual change instead of a bounding box. SurfaceFlinger's damage
// regions work the same way.
type Client interface {
	// RenderRegion draws the surface's current content into buf and
	// returns the damage region (empty when this frame is pixel-identical
	// to the previous one — a redundant frame) and the number of pixels
	// the render pass drew (the GPU cost, which for a redundant frame is
	// typically the full redraw the app wastefully performed). The region
	// is owned by the client and only read until the next render.
	RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int)
}

// Surface is one client's full-screen layer. The manager composes
// damaged areas into the framebuffer in z order, each at the same
// coordinates in the surface buffer and on screen.
type Surface struct {
	name      string
	z         int
	buf       *framebuffer.Buffer
	client    Client
	wantFrame bool
	everDrawn bool

	// firstRect backs the damage list of the first latch, which composes
	// the whole surface, so per-frame composition allocates nothing.
	firstRect [1]framebuffer.Rect

	requests uint64
	renders  uint64
}

// Name returns the surface's diagnostic name.
func (s *Surface) Name() string { return s.name }

// Buffer exposes the surface's backing buffer (apps may pre-draw static
// content before the first frame).
func (s *Surface) Buffer() *framebuffer.Buffer { return s.buf }

// RequestFrame asks the manager to call the surface's client back at the
// next V-Sync. Multiple requests between syncs coalesce into one render,
// exactly like Choreographer frame callbacks.
func (s *Surface) RequestFrame() {
	s.wantFrame = true
	s.requests++
}

// Requests returns the number of frame requests ever made.
func (s *Surface) Requests() uint64 { return s.requests }

// Renders returns the number of render callbacks actually delivered (the
// V-Sync-capped frame count).
func (s *Surface) Renders() uint64 { return s.renders }

// FrameInfo describes one framebuffer update (one latched frame).
type FrameInfo struct {
	T           sim.Time
	Seq         uint64
	DirtyPixels int // pixels that actually changed on screen this frame
	RenderedPx  int // pixels drawn by clients for this frame (the GPU cost)
}

// Manager combines surfaces into the framebuffer on V-Sync.
type Manager struct {
	eng       *sim.Engine
	fb        *framebuffer.Buffer
	surfaces  []*Surface
	frames    uint64
	onFrame   []func(FrameInfo)
	latchGate func(t sim.Time) bool
	deferred  uint64
	rec       *obs.Recorder
	pool      []*framebuffer.Buffer // detached surface buffers, all screen-sized
	tiles     bool                  // the tile pipeline (see SetTiles)
	// scanout, when non-nil, is the sole surface whose buffer
	// is scanned out directly in place of the composed framebuffer — the
	// single-layer fast path real compositors call "client target
	// bypass". Engaged at first latch under SetTiles(true); demoted (with
	// a one-time copy into fb) as soon as a second surface registers.
	scanout *Surface
}

// NewManager creates a manager owning a w × h framebuffer.
func NewManager(eng *sim.Engine, w, h int) *Manager {
	return &Manager{eng: eng, fb: framebuffer.New(w, h)}
}

// Reset detaches every surface and hook, returning the manager to a
// freshly constructed state. Detached surfaces become unusable; their
// backing buffers are parked in an internal free pool that NewSurface
// reuses, so a recycled manager re-registers its surfaces
// allocation-free.
//
// The framebuffer and parked buffers come back blank (Recycle), as New
// hands them out, so a recycled manager composes exactly what a fresh
// one would.
func (m *Manager) Reset() {
	for _, s := range m.surfaces {
		s.client = nil
		m.pool = append(m.pool, s.buf)
	}
	m.surfaces = m.surfaces[:0]
	m.frames = 0
	m.onFrame = m.onFrame[:0]
	m.latchGate = nil
	m.deferred = 0
	m.rec = nil
	// Drop direct scanout without copying back: the framebuffer is
	// recycled below.
	m.scanout = nil
	// Like parked buffers, the framebuffer starts the next session blank,
	// with neutral palette state and counters.
	m.fb.Recycle()
}

// SetTiles selects the pixel pipeline. On, the framebuffer and every
// surface buffer track 32×32 tiles in palette-compressed form
// (framebuffer.EnableTiles), so the meter compares only written tiles,
// and a sole surface is scanned out directly without any copy. Off — the default for directly constructed managers — is the
// brute-force oracle: plain buffers, every damage rectangle blitted
// wholesale. The visible framebuffer bytes, dirty-pixel accounting and
// FrameInfo stream are identical either way for contract-honoring
// clients, and switching never changes content. Surface buffers
// registered later, fresh or pooled, follow the setting; it survives
// Reset, and device init sets it per session.
func (m *Manager) SetTiles(on bool) {
	m.tiles = on
	if !on {
		m.demote()
	}
	m.track(m.fb)
	for _, s := range m.surfaces {
		m.track(s.buf)
	}
}

// track applies the pipeline setting to b.
func (m *Manager) track(b *framebuffer.Buffer) {
	if m.tiles {
		b.EnableTiles()
	} else {
		b.DisableTiles()
	}
}

// demote ends direct scanout, copying the scanned-out buffer into the
// owned framebuffer.
func (m *Manager) demote() {
	if m.scanout != nil {
		m.fb.CopyFrom(m.scanout.buf)
		m.scanout = nil
	}
}

// PaletteStats aggregates palette-compression counters over the
// framebuffer and every registered surface buffer: tiles currently
// stored compressed, and lifetime promotions back to raw.
func (m *Manager) PaletteStats() (tiles int, promotions uint64) {
	tiles = m.fb.PaletteTiles()
	promotions = m.fb.PalettePromotions()
	for _, s := range m.surfaces {
		tiles += s.buf.PaletteTiles()
		promotions += s.buf.PalettePromotions()
	}
	return tiles, promotions
}

// DirectScanout reports whether the framebuffer currently aliases the
// sole surface's buffer (no composition copies at all).
func (m *Manager) DirectScanout() bool { return m.scanout != nil }

// takeBuffer reuses a parked buffer, or allocates a fresh (zeroed) one.
// Every parked buffer is screen-sized, since a manager's screen never
// changes (a device builds a new manager for a new screen). The first
// parked buffer is taken, the last moving into its slot: buffers parked
// by plain and by tile sessions recycle to different representations,
// which PaletteStats shows, so the order stays fixed.
func (m *Manager) takeBuffer() *framebuffer.Buffer {
	last := len(m.pool) - 1
	if last < 0 {
		return framebuffer.New(m.fb.Width(), m.fb.Height())
	}
	b := m.pool[0]
	m.pool[0] = m.pool[last]
	m.pool[last] = nil
	m.pool = m.pool[:last]
	// Neutralize provenance: drop copy-on-write views and stale palette
	// state so a session behaves (and counts) identically whether its
	// buffers are fresh or recycled.
	b.Recycle()
	return b
}

// Framebuffer exposes the composed framebuffer — what the display hardware
// scans out and what the content-rate meter monitors. Under direct
// scanout this is the sole surface's buffer; callers must re-fetch it
// per use rather than cache it across frames.
func (m *Manager) Framebuffer() *framebuffer.Buffer {
	if m.scanout != nil {
		return m.scanout.buf
	}
	return m.fb
}

// Frames returns the total number of framebuffer updates (latched frames).
func (m *Manager) Frames() uint64 { return m.frames }

// OnFrame registers fn to observe every framebuffer update. The content
// meter and the power model's render accounting both hook here.
func (m *Manager) OnFrame(fn func(FrameInfo)) { m.onFrame = append(m.onFrame, fn) }

// SetLatchGate installs a frame-pacing gate: when gate returns false for a
// V-Sync instant, pending frame requests are deferred to a later sync
// instead of being latched. Frame-rate-adaptation schemes (the E³ engine
// of the paper's related work [16]) throttle applications exactly this
// way — the panel keeps refreshing, but the render/composition pipeline
// runs at a reduced pace. Pass nil to remove the gate.
func (m *Manager) SetLatchGate(gate func(t sim.Time) bool) { m.latchGate = gate }

// DeferredLatches returns how many V-Syncs found pending work but were
// blocked by the latch gate.
func (m *Manager) DeferredLatches() uint64 { return m.deferred }

// SetRecorder attaches a decision-event recorder: every latched frame is
// recorded as FrameSubmitted and every gate-blocked V-Sync as VSyncMissed.
// A nil recorder (the default) disables recording at zero cost.
func (m *Manager) SetRecorder(r *obs.Recorder) { m.rec = r }

// NewSurface registers a full-screen surface at depth z (higher z is
// composed later, i.e. on top).
func (m *Manager) NewSurface(name string, z int, client Client) *Surface {
	if client == nil {
		panic(fmt.Sprintf("surface: nil client for %q", name))
	}
	// A second surface appears: materialize the owned framebuffer before
	// anyone composes over a directly scanned-out buffer.
	m.demote()
	s := &Surface{name: name, z: z, buf: m.takeBuffer(), client: client}
	// A pooled buffer may carry tile state from a tile session; an oracle
	// session must not read through it.
	m.track(s.buf)
	// Insert in z order (stable for equal z).
	idx := len(m.surfaces)
	for i, other := range m.surfaces {
		if other.z > z {
			idx = i
			break
		}
	}
	m.surfaces = append(m.surfaces, nil)
	copy(m.surfaces[idx+1:], m.surfaces[idx:])
	m.surfaces[idx] = s
	return s
}

// VSync is the display panel's per-refresh entry point. If any surface has
// a pending frame request, its client renders now, damaged areas are
// composed into the framebuffer, and a FrameInfo is emitted. With no
// pending requests, the framebuffer is untouched — the panel merely
// re-scans old content (the redundancy the paper's refresh control
// eliminates on the hardware side).
func (m *Manager) VSync(t sim.Time, _ int) {
	pending := false
	for _, s := range m.surfaces {
		if s.wantFrame {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	if m.latchGate != nil && !m.latchGate(t) {
		m.deferred++
		m.rec.VSyncMissed(t)
		return
	}
	// Nothing since the scan cleared a request (the gate only paces), so
	// this V-Sync latches a frame.
	totalDirty := 0
	totalRendered := 0
	for _, s := range m.surfaces {
		if !s.wantFrame {
			continue
		}
		s.wantFrame = false
		region, renderedPx := s.client.RenderRegion(t, s.buf)
		rects := region.Rects()
		s.renders++
		if renderedPx < 0 {
			panic(fmt.Sprintf("surface: %q returned negative render cost", s.name))
		}
		if !s.everDrawn {
			// First latch composes the whole surface.
			s.firstRect[0] = s.buf.Bounds()
			rects = s.firstRect[:]
			s.everDrawn = true
			if m.tiles && m.scanout == nil && len(m.surfaces) == 1 {
				// Sole surface: scan its buffer out directly.
				m.scanout = s
			}
		}
		// Under direct scanout the surface buffer IS the framebuffer: no
		// copy, but the same dirty-pixel accounting.
		for _, damage := range rects {
			damage = damage.Clamp(s.buf.Bounds())
			if m.scanout != s {
				m.fb.Blit(s.buf, damage)
			}
			totalDirty += damage.Area()
		}
		totalRendered += renderedPx
	}
	m.frames++
	m.rec.FrameSubmitted(t, totalDirty, totalRendered)
	info := FrameInfo{T: t, Seq: m.frames, DirtyPixels: totalDirty, RenderedPx: totalRendered}
	for _, fn := range m.onFrame {
		fn(info)
	}
}
