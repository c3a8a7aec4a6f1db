package surface

import (
	"testing"

	"ccdem/internal/display"
	"ccdem/internal/framebuffer"
	"ccdem/internal/sim"
)

// countingClient fills area with color on every render and damages it.
type countingClient struct {
	color   framebuffer.Color
	renders int
	area    framebuffer.Rect
	region  framebuffer.Region
}

func (c *countingClient) RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int) {
	c.renders++
	buf.Fill(c.area, c.color)
	c.region.Reset()
	c.region.Add(c.area)
	return &c.region, c.area.Area()
}

func TestRequestCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	m := NewManager(eng, 32, 32)
	cl := &countingClient{color: framebuffer.White, area: framebuffer.R(0, 0, 32, 32)}
	s := m.NewSurface("app", 1, cl)
	// Three requests before any vsync coalesce to one render.
	s.RequestFrame()
	s.RequestFrame()
	s.RequestFrame()
	m.VSync(0, 60)
	if cl.renders != 1 {
		t.Errorf("renders = %d, want 1 (coalesced)", cl.renders)
	}
	if s.Requests() != 3 || s.Renders() != 1 {
		t.Errorf("requests/renders = %d/%d", s.Requests(), s.Renders())
	}
	// No request → vsync latches nothing.
	m.VSync(sim.Hz(60), 60)
	if cl.renders != 1 || m.Frames() != 1 {
		t.Errorf("idle vsync rendered: renders=%d frames=%d", cl.renders, m.Frames())
	}
}

func TestFirstFrameComposesWholeSurface(t *testing.T) {
	eng := sim.NewEngine()
	m := NewManager(eng, 16, 16)
	cl := &countingClient{color: framebuffer.RGB(5, 6, 7), area: framebuffer.R(2, 2, 4, 4)}
	s := m.NewSurface("app", 1, cl)
	// Pre-draw static content outside the damage rect.
	s.Buffer().FillAll(framebuffer.RGB(1, 1, 1))
	var infos []FrameInfo
	m.OnFrame(func(fi FrameInfo) { infos = append(infos, fi) })
	s.RequestFrame()
	m.VSync(0, 60)
	if len(infos) != 1 {
		t.Fatalf("frames = %d", len(infos))
	}
	if infos[0].DirtyPixels != 16*16 {
		t.Errorf("first frame dirty = %d, want full 256", infos[0].DirtyPixels)
	}
	// Static content reached the framebuffer even though damage was small.
	if m.Framebuffer().At(10, 10) != framebuffer.RGB(1, 1, 1) {
		t.Error("pre-drawn content not composed on first frame")
	}
	if m.Framebuffer().At(2, 2) != framebuffer.RGB(5, 6, 7) {
		t.Error("damage content not composed")
	}
	// Second frame reports only the damage area.
	s.RequestFrame()
	m.VSync(sim.Hz(60), 60)
	if infos[1].DirtyPixels != 4 {
		t.Errorf("second frame dirty = %d, want 4", infos[1].DirtyPixels)
	}
}

// TestSetTilesOffAfterReset crosses the pipeline switch on one manager:
// a tile session scans its sole surface out directly from tracked
// buffers; after Reset and SetTiles(false), the framebuffer and the
// pooled surface buffer come back plain, frames compose by blits, and
// direct scanout never engages. Switching off mid-session ends direct
// scanout with the content in place.
func TestSetTilesOffAfterReset(t *testing.T) {
	m := NewManager(sim.NewEngine(), 64, 64)
	m.SetTiles(true)
	cl := &countingClient{color: framebuffer.RGB(9, 8, 7), area: framebuffer.R(0, 0, 40, 20)}
	s := m.NewSurface("app", 1, cl)
	if !m.Framebuffer().TilesEnabled() || !s.Buffer().TilesEnabled() {
		t.Fatalf("tile session: framebuffer tracked=%v, surface tracked=%v",
			m.Framebuffer().TilesEnabled(), s.Buffer().TilesEnabled())
	}
	s.RequestFrame()
	m.VSync(0, 60)
	pooled := s.Buffer()
	if !m.DirectScanout() {
		t.Fatal("tile session: the sole full-screen surface is not scanned out directly")
	}
	m.Reset()
	m.SetTiles(false)
	s = m.NewSurface("app", 1, cl)
	if s.Buffer() != pooled {
		t.Fatal("the surface did not reuse the pooled buffer")
	}
	if m.Framebuffer().TilesEnabled() || s.Buffer().TilesEnabled() {
		t.Fatalf("oracle session: framebuffer tracked=%v, pooled surface tracked=%v",
			m.Framebuffer().TilesEnabled(), s.Buffer().TilesEnabled())
	}
	if !s.Buffer().Equal(framebuffer.New(64, 64)) {
		t.Fatal("oracle session: the pooled surface buffer is not blank, as New hands out")
	}
	for i := 1; i <= 3; i++ {
		cl.color++
		s.RequestFrame()
		m.VSync(sim.Time(i)*sim.Hz(60), 60)
		if m.DirectScanout() {
			t.Fatalf("frame %d: oracle session scans out directly", i)
		}
		if m.Framebuffer().At(5, 5) != cl.color || m.Framebuffer().At(50, 50) != 0 {
			t.Fatalf("frame %d: composed framebuffer holds %08x and %08x", i,
				m.Framebuffer().At(5, 5), m.Framebuffer().At(50, 50))
		}
	}

	m = NewManager(sim.NewEngine(), 64, 64)
	m.SetTiles(true)
	s = m.NewSurface("app", 1, cl)
	s.RequestFrame()
	m.VSync(0, 60)
	m.SetTiles(false)
	if m.DirectScanout() || m.Framebuffer().TilesEnabled() || s.Buffer().TilesEnabled() {
		t.Fatalf("switched off mid-session: scanout=%v, framebuffer tracked=%v, surface tracked=%v",
			m.DirectScanout(), m.Framebuffer().TilesEnabled(), s.Buffer().TilesEnabled())
	}
	if !m.Framebuffer().Equal(s.Buffer()) {
		t.Fatal("switched off mid-session: the framebuffer lost the scanned-out content")
	}
}

// redundantClient re-renders identical pixels: full render cost, no damage.
type redundantClient struct {
	renders int
	region  framebuffer.Region
}

func (c *redundantClient) RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int) {
	c.renders++
	return &c.region, buf.Bounds().Area()
}

func TestRedundantFramesStillLatch(t *testing.T) {
	eng := sim.NewEngine()
	m := NewManager(eng, 8, 8)
	cl := &redundantClient{}
	s := m.NewSurface("game", 1, cl)
	var infos []FrameInfo
	m.OnFrame(func(fi FrameInfo) { infos = append(infos, fi) })
	s.RequestFrame()
	m.VSync(0, 60)
	s.RequestFrame()
	m.VSync(sim.Hz(60), 60)
	if len(infos) != 2 {
		t.Fatalf("frames = %d, want 2", len(infos))
	}
	// Second frame: no dirty pixels (redundant) but full render cost.
	if infos[1].DirtyPixels != 0 {
		t.Errorf("redundant frame dirty = %d, want 0", infos[1].DirtyPixels)
	}
	if infos[1].RenderedPx != 64 {
		t.Errorf("redundant frame rendered = %d, want 64", infos[1].RenderedPx)
	}
}

// TestZOrderComposition composes two full-screen surfaces registered
// out of z order: within a latch the higher z is composed last, so its
// damage lands above the lower surface's, and the lower surface shows
// wherever the higher one did not damage.
func TestZOrderComposition(t *testing.T) {
	eng := sim.NewEngine()
	m := NewManager(eng, 8, 8)
	bottom := &countingClient{color: framebuffer.RGB(1, 0, 0), area: framebuffer.R(0, 0, 8, 8)}
	top := &countingClient{color: framebuffer.RGB(2, 0, 0), area: framebuffer.R(0, 0, 4, 4)}
	stp := m.NewSurface("top", 10, top)
	sb := m.NewSurface("bottom", 0, bottom)
	latch := func(i int) {
		sb.RequestFrame()
		stp.RequestFrame()
		m.VSync(sim.Time(i)*sim.Hz(60), 60)
	}
	latch(0)
	// The first latch composes each surface whole, the top one last.
	if m.Framebuffer().At(1, 1) != top.color || m.Framebuffer().At(6, 6) != framebuffer.Black {
		t.Errorf("first latch: framebuffer holds %08x and %08x, want the top surface's %08x and %08x",
			m.Framebuffer().At(1, 1), m.Framebuffer().At(6, 6), top.color, framebuffer.Black)
	}
	latch(1)
	if m.Framebuffer().At(1, 1) != top.color {
		t.Error("top surface not composed above bottom")
	}
	if m.Framebuffer().At(6, 6) != bottom.color {
		t.Error("bottom surface missing outside top's damage")
	}
}

func TestVSyncCapWithPanel(t *testing.T) {
	// An app requesting frames at 60 fps against a 20 Hz panel renders at
	// most 20 times per second — the V-Sync cap.
	eng := sim.NewEngine()
	p, err := display.NewPanel(eng, display.Config{Levels: display.GalaxyS3Levels, InitialRate: 20})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(eng, 16, 16)
	p.OnVSync(m.VSync)
	cl := &countingClient{color: framebuffer.White, area: framebuffer.R(0, 0, 16, 16)}
	s := m.NewSurface("app", 1, cl)
	eng.Every(0, sim.Hz(60), s.RequestFrame) // 60 fps of requests
	p.Start()
	eng.RunUntil(10 * sim.Second)
	renders := float64(s.Renders()) / 10
	if renders < 19 || renders > 21 {
		t.Errorf("render rate = %v fps at 20 Hz panel, want ≈20", renders)
	}
	reqs := float64(s.Requests()) / 10
	if reqs < 59 || reqs > 61 {
		t.Errorf("request rate = %v fps, want ≈60", reqs)
	}
}

func TestNilClientPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := NewManager(eng, 8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("nil client accepted")
		}
	}()
	m.NewSurface("bad", 0, nil)
}

// regionClient damages two disjoint rects per frame.
type regionClient struct {
	region framebuffer.Region
	calls  int
}

func (c *regionClient) RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int) {
	c.calls++
	c.region.Reset()
	a := framebuffer.R(0, 0, 2, 2)
	b := framebuffer.R(10, 10, 12, 12)
	buf.Fill(a, framebuffer.Color(c.calls))
	buf.Fill(b, framebuffer.Color(c.calls+100))
	c.region.Add(a)
	c.region.Add(b)
	return &c.region, c.region.Area()
}

func TestRegionClientDisjointDamage(t *testing.T) {
	eng := sim.NewEngine()
	m := NewManager(eng, 16, 16)
	cl := &regionClient{}
	s := m.NewSurface("r", 1, cl)
	var infos []FrameInfo
	m.OnFrame(func(fi FrameInfo) { infos = append(infos, fi) })
	s.RequestFrame()
	m.VSync(0, 60) // first frame: full compose
	s.RequestFrame()
	m.VSync(sim.Hz(60), 60)
	if len(infos) != 2 {
		t.Fatalf("frames = %d", len(infos))
	}
	// Second frame: exactly the two 2x2 rects, not their 12x12 bounding box.
	if infos[1].DirtyPixels != 8 {
		t.Errorf("dirty = %d, want 8 (two 2x2 rects)", infos[1].DirtyPixels)
	}
	// Both rects reached the framebuffer.
	if m.Framebuffer().At(0, 0) != framebuffer.Color(2) || m.Framebuffer().At(10, 10) != framebuffer.Color(102) {
		t.Error("region rects not composed")
	}
	// Pixels between the rects untouched.
	if m.Framebuffer().At(5, 5) != framebuffer.Black {
		t.Error("pixel outside region modified")
	}
}

func TestLatchGateDefersFrames(t *testing.T) {
	eng := sim.NewEngine()
	m := NewManager(eng, 8, 8)
	cl := &countingClient{color: framebuffer.White, area: framebuffer.R(0, 0, 8, 8)}
	s := m.NewSurface("app", 1, cl)
	allow := false
	m.SetLatchGate(func(t sim.Time) bool { return allow })
	s.RequestFrame()
	m.VSync(0, 60)
	if cl.renders != 0 || m.DeferredLatches() != 1 {
		t.Fatalf("gated vsync rendered %d, deferred %d", cl.renders, m.DeferredLatches())
	}
	// The request survives and latches once the gate opens.
	allow = true
	m.VSync(sim.Hz(60), 60)
	if cl.renders != 1 {
		t.Errorf("renders = %d after gate opened, want 1", cl.renders)
	}
	// Gate is not consulted with no pending work.
	m.SetLatchGate(func(ts sim.Time) bool { t.Errorf("gate consulted while idle"); return true })
	m.VSync(2*sim.Hz(60), 60)
}
