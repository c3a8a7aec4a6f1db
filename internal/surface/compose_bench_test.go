package surface

import (
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/sim"
)

// benchClient models the workload tile composition targets: the app
// redraws and damages its whole buffer every frame (the wasteful pattern
// §2 of the paper measures), but only a small region actually changes.
type benchClient struct {
	frame int
}

func (c *benchClient) Render(t sim.Time, buf *framebuffer.Buffer) (framebuffer.Rect, int) {
	c.frame++
	x, y := (c.frame*32)%(buf.Width()-32), (c.frame*64)%(buf.Height()-32)
	buf.Fill(framebuffer.Rect{X0: x, Y0: y, X1: x + 32, Y1: y + 32}, framebuffer.Color(c.frame))
	return buf.Bounds(), buf.Width() * buf.Height() // over-reported damage: contract-legal
}

// BenchmarkTileCompose measures one V-Sync latch of a full-screen-damage
// frame with 32×32 pixels of real change, on both pixel pipelines:
//
//   - direct: sole full-screen surface under SetTiles(true) — the buffer
//     is scanned out in place, no copies at all;
//   - naive: the brute-force oracle, blitting every damaged pixel.
func BenchmarkTileCompose(b *testing.B) {
	for _, bc := range []struct {
		name  string
		tiles bool
	}{
		{"direct", true},
		{"naive", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewManager(sim.NewEngine(), 720, 1280)
			m.SetTiles(bc.tiles)
			s := m.NewSurface("app", 1, &benchClient{})
			s.RequestFrame()
			m.VSync(0, 60) // first latch: full compose, engages scanout for "direct"
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.RequestFrame()
				m.VSync(sim.Time(i+1)*sim.Hz(60), 60)
			}
		})
	}
}

// TestComposeTiledZeroAlloc pins the steady-state allocation contract of
// composition: after the first latch, a V-Sync — render callback, Blit
// (or direct scanout), frame accounting — allocates nothing, on either
// pipeline, including a tracked surface that is not full-screen and so
// is blitted.
func TestComposeTiledZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name       string
		tiles      bool
		fullScreen bool
	}{
		{"direct", true, true},
		{"tiles", true, false},
		{"naive", false, true},
	} {
		m := NewManager(sim.NewEngine(), 720, 1280)
		m.SetTiles(tc.tiles)
		frame := framebuffer.R(0, 0, 720, 1280)
		if !tc.fullScreen {
			frame.Y1 = 1248
		}
		s := m.NewSurfaceAt("app", 1, frame, &benchClient{})
		var i sim.Time
		latch := func() {
			i++
			s.RequestFrame()
			m.VSync(i*sim.Hz(60), 60)
		}
		for n := 0; n < 8; n++ { // settle scratch buffers and scanout
			latch()
		}
		if allocs := testing.AllocsPerRun(200, latch); allocs != 0 {
			t.Errorf("%s: steady-state V-Sync allocates %.1f per frame, want 0", tc.name, allocs)
		}
	}
}
