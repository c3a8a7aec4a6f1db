package core

import (
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/power"
	"ccdem/internal/sim"
)

func testMeter(t *testing.T, w, h, samples int) *Meter {
	t.Helper()
	m, err := NewMeter(MeterConfig{
		Grid:   framebuffer.GridForSamples(w, h, samples),
		Window: sim.Second,
		Cost:   power.DefaultCompareCost(),
	})
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	return m
}

func TestMeterValidation(t *testing.T) {
	if _, err := NewMeter(MeterConfig{Window: sim.Second}); err == nil {
		t.Error("zero-sample grid accepted")
	}
	if _, err := NewMeter(MeterConfig{Grid: framebuffer.GridForSamples(10, 10, 4)}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestMeterFirstFrameIsContent(t *testing.T) {
	m := testMeter(t, 16, 16, 16)
	fb := framebuffer.New(16, 16)
	if !m.ObserveFrame(0, fb) {
		t.Error("first frame not counted as content")
	}
}

func TestMeterClassification(t *testing.T) {
	m := testMeter(t, 16, 16, 256) // full-resolution grid
	fb := framebuffer.New(16, 16)
	tm := sim.Time(0)
	next := func() sim.Time { tm += sim.Hz(60); return tm }

	m.ObserveFrame(next(), fb) // first: content
	// Redundant frame: identical pixels.
	if m.ObserveFrame(next(), fb) {
		t.Error("identical frame classified as content")
	}
	// Content frame: change one pixel.
	fb.Set(3, 3, framebuffer.White)
	if !m.ObserveFrame(next(), fb) {
		t.Error("changed frame classified as redundant")
	}
	// Redundant again.
	if m.ObserveFrame(next(), fb) {
		t.Error("unchanged frame after change classified as content")
	}
	frames, content := m.Totals()
	if frames != 4 || content != 2 {
		t.Errorf("totals = %d/%d, want 4/2", frames, content)
	}
	if m.TotalRedundant() != 2 {
		t.Errorf("redundant = %d, want 2", m.TotalRedundant())
	}
}

// TestMeterRedundantThenRevert exercises the double-buffer subtlety: after
// a redundant frame, the stored previous frame must still be the last
// *content* frame, so reverting to it is correctly seen as no change, and
// any new content is still detected.
func TestMeterRedundantThenRevert(t *testing.T) {
	m := testMeter(t, 8, 8, 64)
	fb := framebuffer.New(8, 8)
	m.ObserveFrame(1, fb)
	fb.Set(0, 0, framebuffer.White)
	if !m.ObserveFrame(2, fb) {
		t.Fatal("change not detected")
	}
	if m.ObserveFrame(3, fb) {
		t.Fatal("redundant frame detected as content")
	}
	fb.Set(0, 0, framebuffer.RGB(9, 9, 9))
	if !m.ObserveFrame(4, fb) {
		t.Fatal("change after redundant frame not detected")
	}
}

func TestMeterRates(t *testing.T) {
	m := testMeter(t, 16, 16, 256)
	fb := framebuffer.New(16, 16)
	// 60 fps frames for 1 s; every 3rd frame changes content (20 content fps).
	for i := 0; i < 60; i++ {
		if i%3 == 0 {
			fb.Set(i%16, (i/16)%16, framebuffer.Color(i+1))
		}
		m.ObserveFrame(sim.Time(i+1)*sim.Hz(60), fb)
	}
	now := sim.Time(60) * sim.Hz(60)
	if fr := m.FrameRate(now); fr < 59 || fr > 61 {
		t.Errorf("frame rate = %v, want ≈60", fr)
	}
	if cr := m.ContentRate(now); cr < 19 || cr > 21 {
		t.Errorf("content rate = %v, want ≈20", cr)
	}
	if rr := m.RedundantRate(now); rr < 38 || rr > 42 {
		t.Errorf("redundant rate = %v, want ≈40", rr)
	}
}

func TestMeterGridMiss(t *testing.T) {
	// A sparse grid misses a change that falls between sample points —
	// the error source quantified in Figure 6.
	m := testMeter(t, 64, 64, 16) // 4x4 lattice: centers at 8,24,40,56
	fb := framebuffer.New(64, 64)
	m.ObserveFrame(1, fb)
	fb.Set(0, 0, framebuffer.White) // not a lattice point
	if m.ObserveFrame(2, fb) {
		t.Error("off-lattice change detected by sparse grid")
	}
	fb.Set(8, 8, framebuffer.White) // lattice point
	if !m.ObserveFrame(3, fb) {
		t.Error("on-lattice change missed")
	}
}

func TestMeterCompareAccounting(t *testing.T) {
	var charged []sim.Time
	grid := framebuffer.GridForSamples(720, 1280, 9216)
	m, err := NewMeter(MeterConfig{
		Grid:      grid,
		Window:    sim.Second,
		Cost:      power.DefaultCompareCost(),
		OnCompare: func(d sim.Time) { charged = append(charged, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := framebuffer.New(720, 1280)
	m.ObserveFrame(1, fb)
	m.ObserveFrame(2, fb)
	if len(charged) != 2 {
		t.Fatalf("OnCompare called %d times, want 2", len(charged))
	}
	wantDur := power.DefaultCompareCost().Duration(grid.Samples())
	if charged[0] != wantDur {
		t.Errorf("charged duration = %v, want %v", charged[0], wantDur)
	}
	if m.CompareTime() != 2*wantDur {
		t.Errorf("CompareTime = %v, want %v", m.CompareTime(), 2*wantDur)
	}
	if m.GridSamples() != grid.Samples() {
		t.Errorf("GridSamples = %d", m.GridSamples())
	}
}

// Property: with a full-resolution grid, the meter's classification always
// matches exact buffer comparison (the meter never over- or under-counts
// when it sees every pixel).
func TestMeterFullGridExactProperty(t *testing.T) {
	m := testMeter(t, 32, 32, 32*32)
	fb := framebuffer.New(32, 32)
	prev := framebuffer.New(32, 32)
	rngState := uint32(12345)
	rng := func(n int) int {
		rngState = rngState*1664525 + 1013904223
		return int(rngState % uint32(n))
	}
	m.ObserveFrame(1, fb)
	prev.CopyFrom(fb)
	for i := 2; i < 300; i++ {
		if rng(2) == 0 { // mutate ~half the frames
			fb.Set(rng(32), rng(32), framebuffer.Color(rng(1<<24)))
		}
		wantContent := !fb.Equal(prev)
		if got := m.ObserveFrame(sim.Time(i)*sim.Millisecond, fb); got != wantContent {
			t.Fatalf("frame %d: meter=%v exact=%v", i, got, wantContent)
		}
		prev.CopyFrom(fb)
	}
}

func BenchmarkMeterObserve9K(b *testing.B) {
	m, _ := NewMeter(MeterConfig{
		Grid:   framebuffer.GridForSamples(720, 1280, 9216),
		Window: sim.Second,
		Cost:   power.DefaultCompareCost(),
	})
	fb := framebuffer.New(720, 1280)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fb.Set(i%720, (i/720)%1280, framebuffer.Color(i))
		m.ObserveFrame(sim.Time(i+1)*sim.Hz(60), fb)
	}
}

// BenchmarkTileCompare measures one metered frame observation — small
// real damage on a 720×1280 screen against the 9K grid — on the
// tile-delta path and on the naive full-lattice path it replaced. The
// naive row is the comparison baseline: the delta path reads only the
// lattice points of written tiles instead of gathering all 9216 every
// frame.
func BenchmarkTileCompare(b *testing.B) {
	for _, bc := range []struct {
		name  string
		tiles bool
	}{{"tiles", true}, {"naive", false}} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := NewMeter(MeterConfig{
				Grid:   framebuffer.GridForSamples(720, 1280, 9216),
				Window: sim.Second,
				Cost:   power.DefaultCompareCost(),
			})
			if err != nil {
				b.Fatal(err)
			}
			fb := framebuffer.New(720, 1280)
			if bc.tiles {
				fb.EnableTiles()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fb.Fill(framebuffer.Rect{X0: i % 688, Y0: i % 1248, X1: i%688 + 32, Y1: i%1248 + 32},
					framebuffer.Color(i))
				m.ObserveFrame(sim.Time(i+1)*sim.Hz(60), fb)
			}
		})
	}
}

// BenchmarkMeterDelta measures the two frame shapes the meter spends its
// time on, each one op a mutation and one ObserveFrame on the 9K grid
// over a 720×1280 tracked screen. The video row paints an MX Player
// frame, twelve 60-px bands over the letterboxed half in one of 64
// rotating color sets as one FillRects batch, so every video tile is
// dirty and the meter reads solid and two-color tiles. The memo row
// moves a copy-on-write view onto the next of 64 palette snapshots of
// distinct feed screens under the scrolled list's damage, the shape of
// a feed's memo-hit frames: the meter reads the list tiles' index
// planes, and the snapshots together overflow L2, as a device's memo
// does.
func BenchmarkMeterDelta(b *testing.B) {
	const w, h = 720, 1280
	mkMeter := func(b *testing.B) *Meter {
		m, err := NewMeter(MeterConfig{
			Grid:   framebuffer.GridForSamples(w, h, 9216),
			Window: sim.Second,
			Cost:   power.DefaultCompareCost(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("video", func(b *testing.B) {
		var rects []framebuffer.Rect
		for x := 0; x < w; x += 60 {
			rects = append(rects, framebuffer.R(x, h/4, min(x+60, w), 3*h/4))
		}
		var sets [64][]framebuffer.Color
		for s := range sets {
			for k := range rects {
				sets[s] = append(sets[s], framebuffer.RGB(uint8(s*37+k*11), uint8(s*13+k*71), uint8(s*89+k*5)))
			}
		}
		fb := framebuffer.New(w, h)
		fb.EnableTiles()
		fb.Recycle()
		m := mkMeter(b)
		for i, colors := range sets {
			fb.FillRects(rects, colors)
			m.ObserveFrame(sim.Time(i+1)*sim.Hz(60), fb)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fb.FillRects(rects, sets[i%len(sets)])
			m.ObserveFrame(sim.Time(i+len(sets)+1)*sim.Hz(60), fb)
		}
	})
	b.Run("memo", func(b *testing.B) {
		// Feed screens: a 48-px header over 24-px list rows, each a 5-px
		// header band and a 19-px body, scrolled 7 px further per screen.
		list := framebuffer.R(0, 48, w, h)
		src := framebuffer.New(w, h)
		src.EnableTiles()
		var snaps [64]*framebuffer.Buffer
		for s := range snaps {
			src.Fill(framebuffer.R(0, 0, w, list.Y0), framebuffer.RGB(40, 40, 60))
			for y := list.Y0 - s*7%24; y < h; y += 24 {
				row := uint8((y + s*7) / 24)
				src.Fill(framebuffer.R(0, y, w, y+5).Intersect(list), framebuffer.RGB(row*13, row*29, row*47))
				src.Fill(framebuffer.R(0, y+5, w, y+24).Intersect(list), framebuffer.RGB(row*13+110, row*29+110, row*47+110))
			}
			snaps[s] = framebuffer.NewPaletteSnapshot(src)
		}
		view := framebuffer.New(w, h)
		view.EnableTiles()
		damage := []framebuffer.Rect{list}
		m := mkMeter(b)
		for i, snap := range snaps {
			view.ShareFromDamage(snap, damage)
			m.ObserveFrame(sim.Time(i+1)*sim.Hz(60), view)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view.ShareFromDamage(snaps[i%len(snaps)], damage)
			m.ObserveFrame(sim.Time(i+len(snaps)+1)*sim.Hz(60), view)
		}
	})
}

// TestMeterObserveTiledZeroAlloc pins the tile-delta path's allocation
// contract, mirroring TestMeterObserveFrameZeroAlloc for the naive path:
// once primed, the delta observation — generation check, dirty-tile
// lattice compare, accounting — must not allocate, across content frames,
// redundant frames, and the no-mutation generation-equal shortcut.
func TestMeterObserveTiledZeroAlloc(t *testing.T) {
	m, err := NewMeter(MeterConfig{
		Grid:   framebuffer.GridForSamples(720, 1280, 9216),
		Window: sim.Second,
		Cost:   power.DefaultCompareCost(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := framebuffer.New(720, 1280)
	fb.EnableTiles()
	frame := 0
	observe := func() {
		frame++
		switch frame % 3 {
		case 0: // content frame: real damage in one tile
			fb.Set(frame%720, (frame/720)%1280, framebuffer.Color(frame))
		case 1: // redundant frame with a mutator run (identical bytes)
			fb.Fill(framebuffer.Rect{X0: 0, Y0: 0, X1: 8, Y1: 8}, fb.At(0, 0))
		} // case 2: no mutation at all — the generation-equal shortcut
		m.ObserveFrame(sim.Time(frame)*sim.Hz(60), fb)
	}
	for i := 0; i < 200; i++ { // prime and grow rings past one window
		observe()
	}
	if allocs := testing.AllocsPerRun(500, observe); allocs != 0 {
		t.Errorf("steady-state tiled ObserveFrame allocates %.1f per frame, want 0", allocs)
	}
}

// TestMeterObserveFrameZeroAlloc pins the frame path's allocation contract:
// once the double buffer is primed and the rate-counter rings have grown to
// window occupancy, ObserveFrame — sample, compare, classify, account —
// must not allocate, for content and redundant frames alike.
func TestMeterObserveFrameZeroAlloc(t *testing.T) {
	m, err := NewMeter(MeterConfig{
		Grid:   framebuffer.GridForSamples(720, 1280, 9216),
		Window: sim.Second,
		Cost:   power.DefaultCompareCost(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := framebuffer.New(720, 1280)
	frame := 0
	observe := func() {
		frame++
		if frame%2 == 0 { // alternate content and redundant frames
			fb.Set(frame%720, (frame/720)%1280, framebuffer.Color(frame))
		}
		m.ObserveFrame(sim.Time(frame)*sim.Hz(60), fb)
	}
	for i := 0; i < 200; i++ { // grow rings past one window of 60 fps
		observe()
	}
	if allocs := testing.AllocsPerRun(500, observe); allocs != 0 {
		t.Errorf("steady-state ObserveFrame allocates %.1f per frame, want 0", allocs)
	}
}
