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
	frame  int
	region framebuffer.Region
}

func (c *benchClient) RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int) {
	c.frame++
	x, y := (c.frame*32)%(buf.Width()-32), (c.frame*64)%(buf.Height()-32)
	buf.Fill(framebuffer.Rect{X0: x, Y0: y, X1: x + 32, Y1: y + 32}, framebuffer.Color(c.frame))
	c.region.Reset()
	c.region.Add(buf.Bounds()) // over-reported damage: contract-legal
	return &c.region, buf.Width() * buf.Height()
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
// composition: after the first latch, a V-Sync — render callbacks, Blit
// (or direct scanout), frame accounting — allocates nothing, on either
// pipeline, including two tracked surfaces, whose second registration
// demotes direct scanout, so both are blitted.
func TestComposeTiledZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tiles    bool
		surfaces int
	}{
		{"direct", true, 1},
		{"tiles", true, 2},
		{"naive", false, 1},
	} {
		m := NewManager(sim.NewEngine(), 720, 1280)
		m.SetTiles(tc.tiles)
		var srfs []*Surface
		for z := 0; z < tc.surfaces; z++ {
			srfs = append(srfs, m.NewSurface("app", z, &benchClient{}))
		}
		var i sim.Time
		latch := func() {
			i++
			for _, s := range srfs {
				s.RequestFrame()
			}
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
