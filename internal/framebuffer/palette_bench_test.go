package framebuffer

import "testing"

// feedPaint fills buf with feed-like content: solid 24 px rows of
// distinct colors under a 48 px header — the shape the palette layer is
// built for (every 32×32 tile spans at most a few solid bands, so tiles
// compress to 2–3 palette entries).
func feedPaint(buf *Buffer) {
	w, h := buf.Width(), buf.Height()
	buf.Fill(R(0, 0, w, 48), RGB(40, 40, 60))
	for y, i := 48, 0; y < h; y, i = y+24, i+1 {
		c := RGB(uint8(60+i*13%180), uint8(60+i*29%180), uint8(60+i*47%180))
		buf.Fill(R(0, y, w, min(y+24, h)), c)
	}
}

// BenchmarkPaletteBlit measures full-screen composition of alternating
// app screens — the memo-hit shape, where every tile differs and the
// whole frame is copied — with Blit between tracked buffers against plain
// ones. feedPaint leaves a fresh buffer's list tiles raw (its 24-px rows
// never cover a whole tile), so both tracked screens are re-encoded: the
// palette row copies 512-byte index planes plus side tables, and the raw
// row moves 4 KB of pixels per tile.
func BenchmarkPaletteBlit(b *testing.B) {
	for _, bc := range []struct {
		name    string
		palette bool
	}{{"palette", true}, {"raw", false}} {
		b.Run(bc.name, func(b *testing.B) {
			var screens [2]*Buffer
			for i := range screens {
				screens[i] = New(720, 1280)
				if bc.palette {
					screens[i].EnableTiles()
				}
				feedPaint(screens[i])
				// Offset the second screen's rows so every tile differs.
				if i == 1 {
					screens[i].ScrollVert(R(0, 48, 720, 1280), -24)
					screens[i].Fill(R(0, 1256, 720, 1280), RGB(200, 90, 20))
				}
				encodeAll(screens[i]) // compress the list tiles feedPaint left raw
			}
			dst := New(720, 1280)
			if bc.palette {
				dst.EnableTiles()
			}
			dst.Blit(screens[0], screens[0].Bounds())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := screens[(i+1)&1]
				dst.Blit(src, src.Bounds())
			}
		})
	}
}

// scrolledFeed returns a 720×1280 palette screen holding feedPaint's
// content after a 24-px scroll of the list and a repaint of the vacated
// rows. The top row of header tiles is compressed; the list tiles are raw,
// because feedPaint's partial fills leave a fresh buffer's raw tiles raw
// and a scroll from raw source tiles moves raw rows.
func scrolledFeed() *Buffer {
	buf := New(720, 1280)
	buf.EnableTiles()
	feedPaint(buf)
	buf.ScrollVert(R(0, 48, 720, 1280), 24)
	buf.Fill(R(0, 48, 720, 72), RGB(200, 90, 20))
	return buf
}

// snapSink keeps BenchmarkPaletteSnapshot's result live.
var snapSink *Buffer

// BenchmarkPaletteSnapshot measures the app state memo's store path: one
// NewPaletteSnapshot of a 720×1280 feed screen. The raw row snapshots
// scrolledFeed's screen, whose list tiles are raw, and the palette row the
// same screen after encodeAll, so every source tile is re-indexed instead
// of encoded, each tile its own build. The scrolled row snapshots the
// shape of a device's feed screen, whose tiles start compressed and stay
// so as the list scrolls: a recycled palette screen after feedPaint and
// one feed step (feedStep), whose list tiles ScrollVert copied from their
// left neighbours, so that their shared build stamps prove them alike
// without comparing planes.
func BenchmarkPaletteSnapshot(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  func() *Buffer
	}{
		{"raw", scrolledFeed},
		{"palette", func() *Buffer {
			buf := scrolledFeed()
			encodeAll(buf)
			return buf
		}},
		{"scrolled", func() *Buffer {
			buf := New(720, 1280)
			buf.EnableTiles()
			buf.Recycle()
			feedPaint(buf)
			feedStep(buf, 1, nil, nil)
			return buf
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := bc.src()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snapSink = NewPaletteSnapshot(buf)
			}
		})
	}
}

// BenchmarkPaletteFill measures one MX Player video frame — twelve 60-px
// bands over the letterboxed half of a 720×1280 palette screen, in one of
// 64 rotating color sets — painted as twelve Fill calls and as one
// FillRects batch. Both rows warm up through every color set first, so
// the fill row runs in its steady state: the 200 band-edge tiles have
// overflowed their palettes and are filled raw, row by row. The rects
// row rebuilds the first tile row of the video, each band-edge tile as a
// two-color palette, and copies every tile of the 19 tile rows below
// from the tile above (fillBinned's repeat rows).
func BenchmarkPaletteFill(b *testing.B) {
	rects := videoBands()
	var sets [64][]Color
	for s := range sets {
		sets[s] = make([]Color, len(rects))
		for k := range rects {
			sets[s][k] = RGB(uint8(s*37+k*11), uint8(s*13+k*71), uint8(s*89+k*5))
		}
	}
	for _, bc := range []struct {
		name  string
		batch bool
	}{{"fill", false}, {"rects", true}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := New(720, 1280)
			buf.EnableTiles()
			buf.Recycle()
			paint := func(colors []Color) {
				if bc.batch {
					buf.FillRects(rects, colors)
					return
				}
				for k, r := range rects {
					buf.Fill(r, colors[k])
				}
			}
			for _, colors := range sets {
				paint(colors)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				paint(sets[i%len(sets)])
			}
		})
	}
}

// feedStep runs one step of a scrolling feed on a 720×1280 screen: the
// list under the 48-px header scrolls up 24 px and the vacated rows are
// repainted as one FillRects batch of the three bands a feed app paints
// there (the body of one list row, then the header band and the start of
// the body of the next), in colors that change with step.
func feedStep(buf *Buffer, step int, rects []Rect, colors []Color) {
	buf.ScrollVert(R(0, 48, 720, 1280), -24)
	rects = append(rects[:0], R(0, 1256, 720, 1272), R(0, 1272, 720, 1277), R(0, 1277, 720, 1280))
	colors = colors[:0]
	for k := range rects {
		i := step + k/2
		colors = append(colors, RGB(uint8(60+i*13%180), uint8(60+i*29%180), uint8(60+i*47%180)+uint8(k&1)))
	}
	buf.FillRects(rects, colors)
}

// BenchmarkPaletteScroll measures one feed step (feedStep) on a
// 720×1280 tracked screen whose list tiles start compressed, as a
// device's recycled framebuffer does, and on its plain twin. The
// palette row rebuilds the first and the 16-px right edge tile of each
// list tile row from index-plane rows into a pruned palette and copies
// the 21 tiles between from their left neighbour (scrollPal); the raw
// row moves 3.5 MB of pixels. The palette row is the faster of the two:
// about 122 µs against 177 µs in interleaved rounds on a 2-vCPU guest.
func BenchmarkPaletteScroll(b *testing.B) {
	for _, bc := range []struct {
		name    string
		palette bool
	}{{"palette", true}, {"raw", false}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := New(720, 1280)
			if bc.palette {
				buf.EnableTiles()
			}
			buf.Recycle()
			feedPaint(buf)
			rects, colors := make([]Rect, 0, 3), make([]Color, 0, 3)
			feedStep(buf, 0, rects, colors)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feedStep(buf, i, rects, colors)
			}
		})
	}
}
