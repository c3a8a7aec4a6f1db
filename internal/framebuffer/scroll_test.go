package framebuffer

import (
	"math/rand"
	"testing"
)

// stripeBatch appends to rects and colors a FillRects batch of full-width
// 1-px rows in which each tile row of a w×h screen cycles through its own
// k fresh colors. Every tile then compresses with k colors (k ≤
// PaletteCap), and two vertically adjacent tiles together show 2k: past
// PaletteCap for k > 8.
func stripeBatch(rng *rand.Rand, w, h, k int, rects []Rect, colors []Color) ([]Rect, []Color) {
	var set [PaletteCap]Color
	for y := 0; y < h; y++ {
		if y&tileMask == 0 {
			for j := 0; j < k; j++ {
				set[j] = Color(rng.Uint32() & 0x00ffffff)
			}
		}
		rects = append(rects, R(0, y, w, y+1))
		colors = append(colors, set[y%k])
	}
	return rects, colors
}

// TestPaletteScrollMatchesRaw holds the palette-domain ScrollVert to the
// raw row move: a tracked buffer and its plain twin take the same stream
// of scrolls, and after each one they must agree on the repaint rect and
// every pixel; the tracked buffer must mark exactly the tiles the moved
// rows overlap (checkScrollGens) and keep its bookkeeping invariants
// (checkPalState). Regions are the feed
// region under a header, the whole screen, and rects with tile-misaligned
// X edges that may hang off screen; dy ranges over ±[1, 2·Dy] of the
// clamped region, so about half the scrolls move rows. Before each scroll
// the twins take one of: a narrow-color fill, a wide-color fill, a random
// FillRects batch, a stripe batch whose adjacent tiles together hold ≤16
// or >16 colors, a Recycle, a ShareFrom view of a snapshot, or full-width
// feed rows (feedRows) from a tile-aligned or misaligned row. Tiles are
// thus compressed, raw and mixed, at 8..107 × 8..120 and at 720×1280.
func TestPaletteScrollMatchesRaw(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	narrow := []Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240)}
	var rects []Rect
	var colors []Color
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		w, h := rng.Intn(100)+8, rng.Intn(113)+8
		steps := 12
		if seed%25 == 0 {
			w, h, steps = 720, 1280, 4
		}
		pb := New(w, h)
		pb.EnableTiles()
		rb := New(w, h)
		both := func(f func(b *Buffer)) { f(pb); f(rb) }
		for step := 0; step < steps; step++ {
			switch rng.Intn(8) {
			case 0:
				r, c := randRectIn(rng, w, h), narrow[rng.Intn(len(narrow))]
				both(func(b *Buffer) { b.Fill(r, c) })
			case 1:
				r, c := randRectIn(rng, w, h), Color(rng.Uint32()&0x00ffffff)
				both(func(b *Buffer) { b.Fill(r, c) })
			case 2:
				rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
				both(func(b *Buffer) { b.FillRects(rects, colors) })
			case 3:
				rects, colors = stripeBatch(rng, w, h, rng.Intn(12)+1, rects[:0], colors[:0])
				both(func(b *Buffer) { b.FillRects(rects, colors) })
			case 4:
				both((*Buffer).Recycle)
			case 5:
				if snap := NewPaletteSnapshot(pb); snap != nil {
					both(func(b *Buffer) { b.ShareFrom(snap) })
				}
			case 6:
				y0 := rng.Intn(h)
				if rng.Intn(2) == 0 {
					y0 &^= tileMask
				}
				rects, colors = feedRows(w, h, y0, rng.Intn(len(narrow)), narrow, rects[:0], colors[:0])
				both(func(b *Buffer) { b.FillRects(rects, colors) })
			}
			var r Rect
			switch rng.Intn(3) {
			case 0:
				r = R(0, min(48, h/4), w, h)
			case 1:
				r = pb.Bounds()
			default:
				x0, y0 := rng.Intn(w+16)-8, rng.Intn(h)
				r = R(x0, y0, x0+1+rng.Intn(w+8), y0+1+rng.Intn(h-y0))
			}
			dy := rng.Intn(2*max(r.Clamp(pb.Bounds()).Dy(), 1)) + 1
			if rng.Intn(2) == 0 {
				dy = -dy
			}
			gen, gens := pb.Gen(), append([]uint64(nil), pb.tiles.tgen...)
			if got, want := pb.ScrollVert(r, dy), rb.ScrollVert(r, dy); got != want {
				t.Fatalf("seed %d step %d: ScrollVert(%v, %d) repaint = %v, plain twin %v", seed, step, r, dy, got, want)
			}
			checkSame(t, step, pb, rb)
			checkScrollGens(t, step, pb, r, dy, gen, gens)
			checkPalState(t, step, pb)
		}
	}
}

// TestPaletteScrollFeedStaysCompressed checks the representation win the
// kernel exists for: a 720×1280 feed screen on a recycled buffer, as a
// device's framebuffer starts, scrolled 200 feed steps (feedStep) keeps
// all 920 tiles compressed with no promotion, and matches its plain
// twin. A scroll that kept each tile's palette would overflow within a
// few steps, since every step brings new list colors.
func TestPaletteScrollFeedStaysCompressed(t *testing.T) {
	pb := New(720, 1280)
	pb.EnableTiles()
	rb := New(720, 1280)
	var rects []Rect
	var colors []Color
	for _, b := range []*Buffer{pb, rb} {
		b.Recycle()
		feedPaint(b)
		for step := 0; step < 200; step++ {
			feedStep(b, step, rects, colors)
		}
	}
	checkSame(t, 200, pb, rb)
	checkPalState(t, 200, pb)
	if n := pb.PaletteTiles(); n != pb.Tiles() {
		t.Errorf("%d of %d tiles compressed after 200 feed steps, want all", n, pb.Tiles())
	}
	if p := pb.PalettePromotions(); p != 0 {
		t.Errorf("feed steps promoted %d tiles, want 0", p)
	}
}

// checkScrollGens checks the generations ScrollVert(r, dy) left on a,
// whose generation was gen and tile generations gens before the call:
// when rows moved, Gen advanced by one and exactly the tiles the moved
// rows overlap carry it; otherwise nothing changed.
func checkScrollGens(t *testing.T, step int, a *Buffer, r Rect, dy int, gen uint64, gens []uint64) {
	t.Helper()
	moved := Rect{}
	if c := r.Clamp(a.Bounds()); !c.Empty() && dy != 0 && abs(dy) < c.Dy() {
		moved = Rect{c.X0, max(c.Y0+dy, c.Y0), c.X1, min(c.Y1+dy, c.Y1)}
		gen++
	}
	if a.Gen() != gen {
		t.Fatalf("step %d: ScrollVert(%v, %d) left Gen %d, want %d", step, r, dy, a.Gen(), gen)
	}
	for i, g := range gens {
		if !a.TileRect(i).Intersect(moved).Empty() {
			g = gen
		}
		if a.TileGen(i) != g {
			t.Fatalf("step %d: ScrollVert(%v, %d) left tile %d at gen %d, want %d", step, r, dy, i, a.TileGen(i), g)
		}
	}
}
