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
// write path that maintains tile generations.
func fuzzMutate(rng *rand.Rand, twins [2]*framebuffer.Buffer, aux *framebuffer.Buffer) {
	w, h := twins[0].Width(), twins[0].Height()
	var mutate func(buf *framebuffer.Buffer)
	switch rng.Intn(5) {
	case 0:
		r, c := fuzzMeterRect(rng, w, h), framebuffer.Color(rng.Uint32()&0x00ffffff)
		mutate = func(buf *framebuffer.Buffer) { buf.Fill(r, c) }
	case 1:
		x, y, c := rng.Intn(w), rng.Intn(h), framebuffer.Color(rng.Uint32()&0x00ffffff)
		mutate = func(buf *framebuffer.Buffer) { buf.Set(x, y, c) }
	case 2:
		r, dy := fuzzMeterRect(rng, w, h), rng.Intn(2*h+1)-h
		mutate = func(buf *framebuffer.Buffer) { buf.ScrollVert(r, dy) }
	case 3:
		sr, dx, dy := fuzzMeterRect(rng, w, h), rng.Intn(w+10)-5, rng.Intn(h+10)-5
		mutate = func(buf *framebuffer.Buffer) { buf.Blit(aux, sr, dx, dy) }
	default:
		mutate = func(buf *framebuffer.Buffer) { buf.CopyFrom(aux) }
	}
	for _, buf := range twins {
		mutate(buf)
	}
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
		// Two screens plus a blit source: switching the observed screen
		// mid-run exercises the meter's demotion fallback (the
		// direct-scanout → composed-framebuffer transition).
		screens := [2][2]*framebuffer.Buffer{mkTwins(), mkTwins()}
		aux := mkTwins()[0]
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
				fuzzMutate(rng, screens[cur], aux)
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
