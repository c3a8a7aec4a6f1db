package framebuffer

import (
	"math/rand"
	"testing"
)

// FuzzPaletteCompare differentially tests the palette-compressed tile
// representation against a plain buffer: the same mutation stream —
// fills from a narrow palette, wide-color fills that force promotion,
// FillRects batches, full-width feed rows and vertical bands, single
// stores, scrolls, blits from raw and from compressed sources — drives a
// tracked buffer and a plain one in lockstep, and after every operation
// the two must agree on every read path: At, Equal and grid sampling,
// and the tracked buffer's build stamps must stay honest (checkStamps).
// Snapshot/share round-trips (encodeAll, NewPaletteSnapshot,
// ShareFromDamage) are interleaved as content-preserving no-ops. Any
// divergence means a nibble kernel, binned fill, tile copy, plane copy,
// promotion edge or copy-on-write path changed visible bytes.
func FuzzPaletteCompare(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 2, 3, 9}, uint8(64), uint8(64))
	f.Add(int64(2), []byte{2, 2, 2, 2, 2, 2, 9, 6}, uint8(33), uint8(47)) // wide fills: promotion pressure
	f.Add(int64(3), []byte{0, 4, 5, 0, 9, 6, 7, 0, 9}, uint8(96), uint8(40))
	f.Add(int64(4), []byte{3, 3, 3, 3, 9, 0, 6, 9}, uint8(31), uint8(32)) // single stores walk a palette to 16 then over
	f.Add(int64(5), []byte{0, 5, 5, 2, 9, 7, 0, 9, 6}, uint8(80), uint8(130))
	f.Add(int64(6), []byte{8, 8, 9, 8, 2, 8, 7, 8}, uint8(99), uint8(119)) // FillRects batches over recycled and promoted tiles
	// Scrolls over recycled, batched, snapshot and promoted tiles, on an
	// 8-px-wide screen, where a random rect spans a whole tile row often.
	f.Add(int64(8), []byte{9, 9, 4, 4, 4, 4, 8, 4, 4, 4, 4, 0, 4, 4, 4, 7, 4, 4, 4, 2, 4, 4, 4, 6, 4, 4, 4}, uint8(0), uint8(111))
	// Scrolls over full-width feed rows on a screen with a partial edge
	// tile column.
	f.Add(int64(9), []byte{10, 4, 4, 4, 10, 4, 4, 0, 4, 10, 4, 3, 4, 4, 10, 7, 4, 4}, uint8(96), uint8(119))
	// Feed rows and vertical bands, whose tiles FillRects copies from the
	// tile to their left or above, then scrolls that copy tiles from
	// their left neighbours, over single stores and wide fills that break
	// the runs.
	f.Add(int64(10), []byte{10, 10, 4, 10, 4, 3, 10, 4, 4, 2, 10, 4, 10, 10, 4, 4, 8, 10, 4}, uint8(92), uint8(119))

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8) {
		w := int(w8%100) + 8 // 8..107: partial edge tiles in both axes
		h := int(h8%120) + 8
		if len(ops) > 128 {
			ops = ops[:128]
		}
		rng := rand.New(rand.NewSource(seed))

		pb := New(w, h)
		pb.EnableTiles()
		rb := New(w, h)

		// Blit sources: raw random content, a compressed palette screen,
		// and the latest op-7 snapshot while there is one.
		aux := New(w, h)
		for i := range aux.Pix() {
			aux.Pix()[i] = Color(rng.Uint32() & 0x00ffffff)
		}
		paux := narrowScreen(rng, w, h)
		var snap *Buffer
		// A narrow color set keeps tiles palettized; wide colors overflow
		// PaletteCap and exercise promotion.
		narrow := [5]Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240)}
		randRect := func() Rect {
			return Rect{
				X0: rng.Intn(w+16) - 8, Y0: rng.Intn(h+16) - 8,
				X1: rng.Intn(w+16) - 8, Y1: rng.Intn(h+16) - 8,
			}
		}

		grid := GridForSamples(w, h, 64)
		sp := make([]Color, grid.Samples())
		sr := make([]Color, grid.Samples())
		check := func(step int) {
			t.Helper()
			checkStamps(t, step, pb)
			if !pb.Equal(rb) || !rb.Equal(pb) {
				t.Fatalf("step %d (%dx%d): Equal reports divergence (palTiles=%d promos=%d)",
					step, w, h, pb.PaletteTiles(), pb.PalettePromotions())
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if pb.At(x, y) != rb.At(x, y) {
						t.Fatalf("step %d: At(%d,%d) palette=%08x plain=%08x", step, x, y, pb.At(x, y), rb.At(x, y))
					}
				}
			}
			grid.Sample(pb, sp)
			grid.Sample(rb, sr)
			for i := range sp {
				if sp[i] != sr[i] {
					t.Fatalf("step %d: grid sample %d palette=%08x plain=%08x", step, i, sp[i], sr[i])
				}
			}
		}

		var batch []Rect
		var batchColors []Color
		for step, op := range ops {
			switch op % 11 {
			case 0, 1: // narrow fill: the palettized fast path
				r, c := randRect(), narrow[rng.Intn(len(narrow))]
				if np, nr := pb.Fill(r, c), rb.Fill(r, c); np != nr {
					t.Fatalf("step %d: Fill count palette=%d plain=%d", step, np, nr)
				}
			case 2: // wide fill: palette growth and promotion
				r, c := randRect(), Color(rng.Uint32()&0x00ffffff)
				if np, nr := pb.Fill(r, c), rb.Fill(r, c); np != nr {
					t.Fatalf("step %d: Fill count palette=%d plain=%d", step, np, nr)
				}
			case 3: // single stores, sometimes wide: per-tile palettes creep past PaletteCap
				for n := rng.Intn(40) + 1; n > 0; n-- {
					x, y := rng.Intn(w), rng.Intn(h)
					c := narrow[rng.Intn(len(narrow))]
					if rng.Intn(3) == 0 {
						c = Color(rng.Uint32() & 0x00ffffff)
					}
					pb.Set(x, y, c)
					rb.Set(x, y, c)
				}
			case 4: // scroll: the feed kernel over mixed representations
				r, dy := randRect(), rng.Intn(2*h+1)-h
				if rp, rr := pb.ScrollVert(r, dy), rb.ScrollVert(r, dy); rp != rr {
					t.Fatalf("step %d: ScrollVert repaint palette=%v plain=%v", step, rp, rr)
				}
			case 5: // blit raw or compressed content: plane copies of whole tiles, raw rows of cut ones
				src := aux
				if rng.Intn(2) == 0 {
					src = paux
					if snap != nil && rng.Intn(2) == 0 {
						src = snap
					}
				}
				r := randRect()
				if np, nr := pb.Blit(src, r), rb.Blit(src, r); np != nr {
					t.Fatalf("step %d: Blit count palette=%d plain=%d", step, np, nr)
				}
			case 6: // re-encode is content-preserving
				encodeAll(pb)
			case 7: // snapshot + share round-trip must reproduce the content
				snap = NewPaletteSnapshot(pb)
				if snap == nil {
					break
				}
				view := New(w, h)
				view.EnableTiles()
				view.FillAll(narrow[rng.Intn(len(narrow))])
				view.ShareFromDamage(snap, []Rect{view.Bounds()})
				if !view.Equal(rb) {
					t.Fatalf("step %d: snapshot/share view diverges from the plain reference", step)
				}
			case 8: // a FillRects batch: bands, overlaps, off-screen rects, >16 colors in a tile
				batch, batchColors = randFillBatch(rng, w, h, narrow[:], batch[:0], batchColors[:0])
				if np, nr := pb.FillRects(batch, batchColors), rb.FillRects(batch, batchColors); np != nr {
					t.Fatalf("step %d: FillRects count palette=%d plain=%d", step, np, nr)
				}
			case 9: // recycle both: must come back blank and in lockstep
				if rng.Intn(2) == 0 {
					pb.Recycle()
					rb.Recycle()
				}
			default: // full-width feed rows or vertical bands: tiles drawn like their neighbours
				y0 := rng.Intn(h)
				if rng.Intn(2) == 0 {
					y0 &^= tileMask
				}
				if rng.Intn(2) == 0 {
					batch, batchColors = feedRows(w, h, y0, rng.Intn(len(narrow)), narrow[:], batch[:0], batchColors[:0])
				} else {
					batch, batchColors = batch[:0], batchColors[:0]
					for x, bw := rng.Intn(TileSize), rng.Intn(40)+2; x < w; x += bw {
						batch = append(batch, R(x, y0, x+bw, h))
						batchColors = append(batchColors, narrow[rng.Intn(len(narrow))])
					}
				}
				pb.FillRects(batch, batchColors)
				rb.FillRects(batch, batchColors)
			}
			check(step)
		}
	})
}
