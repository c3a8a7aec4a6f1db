package core

import (
	"math/rand"
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/power"
	"ccdem/internal/sim"
)

// fuzzMeterRect draws a rect roughly within (sometimes beyond) w × h.
func fuzzMeterRect(rng *rand.Rand, w, h int) framebuffer.Rect {
	return framebuffer.Rect{
		X0: rng.Intn(w+20) - 10,
		Y0: rng.Intn(h+20) - 10,
		X1: rng.Intn(w+20) - 10,
		Y1: rng.Intn(h+20) - 10,
	}
}

// fuzzMutate applies one random mutation to both twins, covering every
// write path that maintains tile generations: the pixel mutators, binned
// fills, moves onto a palette snapshot of aux (whole-screen or under
// exact damage, the memo-hit and install-screen frames; the plain twin
// shares the same snapshot) and recycling. aux is painted in auxColors,
// so its tiles always compress.
func fuzzMutate(rng *rand.Rand, twins [2]*framebuffer.Buffer, aux *framebuffer.Buffer, auxColors []framebuffer.Color) {
	w, h := twins[0].Width(), twins[0].Height()
	anyColor := func() framebuffer.Color { return framebuffer.Color(rng.Uint32() & 0x00ffffff) }
	var mutate func(buf *framebuffer.Buffer)
	switch rng.Intn(8) {
	case 0:
		r, c := fuzzMeterRect(rng, w, h), anyColor()
		mutate = func(buf *framebuffer.Buffer) { buf.Fill(r, c) }
	case 1:
		x, y, c := rng.Intn(w), rng.Intn(h), anyColor()
		mutate = func(buf *framebuffer.Buffer) { buf.Set(x, y, c) }
	case 2:
		r, dy := fuzzMeterRect(rng, w, h), rng.Intn(2*h+1)-h
		mutate = func(buf *framebuffer.Buffer) { buf.ScrollVert(r, dy) }
	case 3:
		r := fuzzMeterRect(rng, w, h)
		mutate = func(buf *framebuffer.Buffer) { buf.Blit(aux, r) }
	case 4:
		mutate = func(buf *framebuffer.Buffer) { buf.CopyFrom(aux) }
	case 5:
		rects, colors := fuzzBatch(rng, w, h, func() framebuffer.Color {
			if rng.Intn(3) == 0 {
				return anyColor()
			}
			return auxColors[rng.Intn(4)]
		})
		mutate = func(buf *framebuffer.Buffer) { buf.FillRects(rects, colors) }
	case 6:
		if rng.Intn(2) == 0 {
			aux.FillRects(fuzzBatch(rng, w, h, func() framebuffer.Color { return auxColors[rng.Intn(len(auxColors))] }))
		}
		snap := framebuffer.NewPaletteSnapshot(aux)
		if rng.Intn(3) == 0 {
			mutate = func(buf *framebuffer.Buffer) { buf.ShareFrom(snap) }
			break
		}
		// Damage every tile whose content changes: the ShareFromDamage
		// contract.
		var damage []framebuffer.Rect
		for i := 0; i < twins[0].Tiles(); i++ {
			r := twins[0].TileRect(i)
		scan:
			for y := r.Y0; y < r.Y1; y++ {
				for x := r.X0; x < r.X1; x++ {
					if twins[1].At(x, y) != snap.At(x, y) {
						damage = append(damage, r)
						break scan
					}
				}
			}
		}
		mutate = func(buf *framebuffer.Buffer) { buf.ShareFromDamage(snap, damage) }
	default:
		mutate = func(buf *framebuffer.Buffer) { buf.Recycle() }
	}
	for _, buf := range twins {
		mutate(buf)
	}
}

// fuzzBatch draws a FillRects batch for a w × h screen in colors from
// color: vertical bands or full-width rows tiling a random span (the
// video and feed shapes, whose tiles binned fills rebuild and reuse), or
// free rects that overlap, leave the screen or come inverted.
func fuzzBatch(rng *rand.Rand, w, h int, color func() framebuffer.Color) ([]framebuffer.Rect, []framebuffer.Color) {
	var rects []framebuffer.Rect
	var colors []framebuffer.Color
	switch rng.Intn(3) {
	case 0: // vertical bands
		x0, y0 := rng.Intn(w), rng.Intn(h)
		y1, bw := y0+rng.Intn(h-y0)+1, rng.Intn(40)+1
		for x := x0; x < w; x += bw {
			rects = append(rects, framebuffer.R(x, y0, x+bw, y1))
			colors = append(colors, color())
		}
	case 1: // full-width rows
		y0, bh := rng.Intn(h), rng.Intn(24)+1
		for y := y0; y < h; y += bh {
			rects = append(rects, framebuffer.R(0, y, w, y+bh))
			colors = append(colors, color())
		}
	default:
		for n := rng.Intn(6) + 1; n > 0; n-- {
			rects = append(rects, fuzzMeterRect(rng, w, h))
			colors = append(colors, color())
		}
	}
	return rects, colors
}

// FuzzTileCompare is the meter differential fuzzer: a tile-delta meter
// observing a tracked framebuffer and a naive full-lattice meter
// observing its plain twin follow the same random mutation/observe/
// buffer-switch history. Every per-frame verdict, the lifetime totals
// and the accumulated modeled compare time (which encodes the early-exit
// comparedPx of every observation) must match — the tile path merely
// avoids reading pixels the generations prove unchanged, and reads
// compressed tiles through their palettes.
func FuzzTileCompare(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 0, 1, 1, 0}, uint8(64), uint8(64), uint16(256), false)
	f.Add(int64(2), []byte{0, 0, 0}, uint8(33), uint8(47), uint16(100), true)
	f.Add(int64(3), []byte{1, 2, 0, 3, 0, 2, 0, 1, 1, 0, 3, 0}, uint8(96), uint8(130), uint16(512), true)
	f.Add(int64(4), []byte{3, 0, 3, 0, 1, 3, 0}, uint8(80), uint8(60), uint16(64), false)
	f.Add(int64(5), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, uint8(32), uint8(32), uint16(1024), true)

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8, samples16 uint16, earlyExit bool) {
		w := int(w8%100) + 16
		h := int(h8%120) + 16
		samples := int(samples16%2048) + 4
		if len(ops) > 256 {
			ops = ops[:256]
		}

		grid := framebuffer.GridForSamples(w, h, samples)
		cost := power.DefaultCompareCost()
		mkMeter := func() *Meter {
			m, err := NewMeter(MeterConfig{
				Grid:      grid,
				Window:    sim.Second,
				Cost:      cost,
				EarlyExit: earlyExit,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		tiled := mkMeter()
		naive := mkMeter()

		rng := rand.New(rand.NewSource(seed))
		// mkTwins returns a tracked screen of random pixels and its plain
		// twin.
		mkTwins := func() [2]*framebuffer.Buffer {
			b := framebuffer.New(w, h)
			pix := b.Pix()
			for i := range pix {
				pix[i] = framebuffer.Color(rng.Uint32() & 0x00ffffff)
			}
			twin := framebuffer.New(w, h)
			twin.CopyFrom(b)
			b.EnableTiles()
			return [2]*framebuffer.Buffer{b, twin}
		}
		// Two screens plus a blit and snapshot source: switching the
		// observed screen mid-run exercises the meter's demotion fallback
		// (the direct-scanout → composed-framebuffer transition).
		screens := [2][2]*framebuffer.Buffer{mkTwins(), mkTwins()}
		auxColors := make([]framebuffer.Color, 12)
		for i := range auxColors {
			auxColors[i] = framebuffer.Color(rng.Uint32() & 0x00ffffff)
		}
		aux := framebuffer.New(w, h)
		for i, pix := 0, aux.Pix(); i < len(pix); i++ {
			pix[i] = auxColors[rng.Intn(len(auxColors))]
		}
		aux.EnableTiles()
		cur := 0

		var now sim.Time
		for step, op := range ops {
			now += sim.Millisecond
			switch op % 4 {
			case 0: // observe the current screen on both meters
				got := tiled.ObserveFrame(now, screens[cur][0])
				want := naive.ObserveFrame(now, screens[cur][1])
				if got != want {
					t.Fatalf("step %d (%dx%d, %d samples): tiled verdict %v, naive %v",
						step, w, h, grid.Samples(), got, want)
				}
				if gotT, wantT := tiled.CompareTime(), naive.CompareTime(); gotT != wantT {
					t.Fatalf("step %d: compare time %v (tiled) vs %v (naive) — comparedPx diverged",
						step, gotT, wantT)
				}
			case 1, 2: // paint the current screen
				fuzzMutate(rng, screens[cur], aux, auxColors)
			default: // switch which buffer the display scans out
				cur = 1 - cur
			}
		}

		tf, tc := tiled.Totals()
		nf, nc := naive.Totals()
		if tf != nf || tc != nc {
			t.Fatalf("totals: tiled %d/%d, naive %d/%d", tf, tc, nf, nc)
		}
		if tiled.TotalRedundant() != naive.TotalRedundant() {
			t.Fatalf("redundant: tiled %d, naive %d", tiled.TotalRedundant(), naive.TotalRedundant())
		}
	})
}
