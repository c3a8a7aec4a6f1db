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
// rows overlap (checkScrollGens), keep its bookkeeping invariants
// (checkPalState), and store every tile as a tracked twin that scrolls
// one tile column at a time does (scrollByColumns, checkSameRepr), so a
// tile copied from its left neighbour is stored as its rebuild would
// be; both keep honest build stamps (checkStamps). Regions are the feed
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
		cb := New(w, h)
		cb.EnableTiles()
		rb := New(w, h)
		both := func(f func(b *Buffer)) { f(pb); f(cb); f(rb) }
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
			scrollByColumns(cb, r, dy)
			checkSame(t, step, pb, rb)
			checkScrollGens(t, step, pb, r, dy, gen, gens)
			checkPalState(t, step, pb)
			checkSameRepr(t, step, pb, cb)
			checkStamps(t, step, pb, cb)
		}
	}
}

// scrollByColumns applies ScrollVert(r, dy) to b one tile column at a
// time. A tile then has no left neighbour to copy, so every tile is
// rebuilt or falls back, and must end up stored as under the whole
// scroll; only generations differ.
func scrollByColumns(b *Buffer, r Rect, dy int) {
	r = r.Clamp(b.Bounds())
	if r.Empty() {
		return
	}
	for x := r.X0 &^ tileMask; x < r.X1; x += TileSize {
		b.ScrollVert(r.Intersect(R(x, r.Y0, x+TileSize, r.Y1)), dy)
	}
}

// TestPaletteScrollCopies pins the work ScrollVert's copy rule saves,
// which output comparisons cannot see, and checks the cases that must
// break a run of copies. On a 720×1280 feed screen whose list tiles are
// compressed, a feed step rebuilds the first tile and the 16-px right
// edge tile of each tile row the move overlaps and copies the 21
// between, whichever way content moves, also in the partial top and
// bottom rows, where the tiles' own rows are compared too. Then: moves
// of 32 px and more, a raw source tile and a palette overflow in the
// middle of a row (the tile after must be rebuilt, not copied from a
// tile that fell back), and region edges inside a tile. After each
// scroll the buffer must match its plain twin, mark the right tiles,
// keep its invariants and store every tile as a twin that scrolls one
// tile column at a time.
func TestPaletteScrollCopies(t *testing.T) {
	feed := R(0, 48, 720, 1280)
	rowsOf := func(moved Rect) uint64 { return uint64((moved.Y1-1)>>TileShift - moved.Y0>>TileShift + 1) }
	for _, tc := range []struct {
		name   string
		prep   func(b *Buffer)
		r      Rect
		dy     int
		copies uint64 // checked when non-zero
	}{
		{"feed step up", nil, feed, -24, 21 * rowsOf(R(0, 48, 720, 1256))},
		{"feed step down", nil, feed, 24, 21 * rowsOf(R(0, 72, 720, 1280))},
		{"40 px up", nil, feed, -40, 21 * rowsOf(R(0, 48, 720, 1240))},
		{"64 px down", nil, feed, 64, 21 * rowsOf(R(0, 112, 720, 1280))},
		{"100 px up, whole screen", nil, R(0, 0, 720, 1280), -100, 21 * rowsOf(R(0, 0, 720, 1180))},
		{"raw source tile", func(b *Buffer) {
			for k := 0; k <= PaletteCap; k++ { // overflow one list tile's palette
				b.Set(7*TileSize+k, 20*TileSize+k, RGB(uint8(k*15), 1, 2))
			}
		}, feed, -24, 0},
		{"palette overflow", func(b *Buffer) {
			// 1-px rows of 9 colors per tile row over tiles 5..9: a rebuilt
			// tile there shows up to 18 colors and falls back.
			var rects []Rect
			var colors []Color
			for y := 600; y < 700; y++ {
				rects = append(rects, R(5*TileSize, y, 10*TileSize, y+1))
				colors = append(colors, RGB(uint8(y%9*20), uint8(y>>TileShift), 3))
			}
			b.FillRects(rects, colors)
		}, feed, -24, 0},
		{"region edges inside tiles", nil, R(40, 48, 700, 1280), -24, 0},
		{"region edges inside tiles, down", nil, R(40, 60, 690, 1200), 40, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pb := New(720, 1280)
			pb.EnableTiles()
			cb := New(720, 1280)
			cb.EnableTiles()
			rb := New(720, 1280)
			var rects []Rect
			var colors []Color
			for _, b := range []*Buffer{pb, cb, rb} {
				b.Recycle()
				feedPaint(b)
				for step := 0; step < 3; step++ {
					feedStep(b, step, rects, colors)
				}
				if tc.prep != nil {
					tc.prep(b)
				}
			}
			checkSameRepr(t, -1, pb, cb)
			gen, gens := pb.Gen(), append([]uint64(nil), pb.tiles.tgen...)
			before := pb.tiles.copies
			if got, want := pb.ScrollVert(tc.r, tc.dy), rb.ScrollVert(tc.r, tc.dy); got != want {
				t.Fatalf("ScrollVert(%v, %d) repaint = %v, plain twin %v", tc.r, tc.dy, got, want)
			}
			scrollByColumns(cb, tc.r, tc.dy)
			if n := pb.tiles.copies - before; tc.copies != 0 && n != tc.copies {
				t.Errorf("%d tiles copied, want %d", n, tc.copies)
			}
			checkSame(t, 0, pb, rb)
			checkScrollGens(t, 0, pb, tc.r, tc.dy, gen, gens)
			checkPalState(t, 0, pb)
			checkSameRepr(t, 0, pb, cb)
		})
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
