package framebuffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// videoBands returns MX Player's video frame geometry on a 720×1280
// screen: twelve 60-px bands over the letterboxed middle half, so ten of
// the eleven interior band edges fall inside a 32-px tile.
func videoBands() []Rect {
	var rects []Rect
	for x := 0; x < 720; x += 60 {
		rects = append(rects, R(x, 320, min(x+60, 720), 960))
	}
	return rects
}

// randFillBatch appends a random FillRects batch for a w×h buffer to
// rects and colors and returns them. A batch mixes band sets that tile a
// random rect (columns, rows or a grid, sometimes hanging off screen),
// free rects that overlap, leave the screen or come inverted, colors from
// narrow and from a wide random draw, and runs of 1-px columns that draw
// more than PaletteCap colors into one covered tile.
func randFillBatch(rng *rand.Rand, w, h int, narrow []Color, rects []Rect, colors []Color) ([]Rect, []Color) {
	color := func() Color {
		if rng.Intn(3) == 0 {
			return Color(rng.Uint32() & 0x00ffffff)
		}
		return narrow[rng.Intn(len(narrow))]
	}
	randRect := func() Rect {
		return Rect{
			X0: rng.Intn(w+16) - 8, Y0: rng.Intn(h+16) - 8,
			X1: rng.Intn(w+16) - 8, Y1: rng.Intn(h+16) - 8,
		}
	}
	for n := rng.Intn(4) + 1; n > 0; n-- {
		switch rng.Intn(4) {
		case 0: // bands tiling a rect: columns, rows, or a grid of cells
			r := randRect()
			if r.Empty() {
				r = Rect{r.X1, r.Y1, r.X0, r.Y0}
			}
			bw, bh := r.Dx(), r.Dy()
			switch rng.Intn(3) {
			case 0:
				bw = rng.Intn(40) + 1 + r.Dx()/32
			case 1:
				bh = rng.Intn(40) + 1 + r.Dy()/32
			default:
				bw, bh = rng.Intn(40)+1+r.Dx()/8, rng.Intn(40)+1+r.Dy()/8
			}
			for y := r.Y0; y < r.Y1; y += bh {
				for x := r.X0; x < r.X1; x += bw {
					rects = append(rects, R(x, y, min(x+bw, r.X1), min(y+bh, r.Y1)))
					colors = append(colors, color())
				}
			}
		case 1: // 1-px columns in fresh colors: past PaletteCap in one tile
			x0, y0 := rng.Intn(w), rng.Intn(h)
			y1 := y0 + rng.Intn(h-y0) + 1
			for k := rng.Intn(24) + 1; k > 0; k-- {
				rects = append(rects, R(x0, y0, x0+1, y1))
				colors = append(colors, Color(rng.Uint32()&0x00ffffff))
				x0++
			}
		default: // free rects: overlapping, off screen or inverted
			rects = append(rects, randRect())
			colors = append(colors, color())
		}
	}
	return rects, colors
}

// bandBatch appends a banded FillRects batch for a w×h buffer (h at
// least five tiles) to rects and colors and returns them: the shapes
// whose covered tiles FillRects rebuilds once and copies. It draws
// either vertical bands over at least four tile rows, at tile-aligned or
// misaligned x and y, or full-width feed rows of alternating 5-px and
// 19-px bands; bands run off the right or bottom edge, so edge tiles of
// a buffer that is no multiple of 32 come partial. Band colors come from
// narrow, so a color recurs under other clips.
func bandBatch(rng *rand.Rand, w, h int, narrow []Color, rects []Rect, colors []Color) ([]Rect, []Color) {
	at := func(extent int) int { // a tile-aligned or a misaligned start
		if rng.Intn(2) == 0 {
			return rng.Intn(tilesFor(extent)) << TileShift
		}
		return rng.Intn(extent)
	}
	if rng.Intn(2) == 0 {
		x0, y0 := at(w), at(h-4*TileSize)
		y1 := y0 + 4*TileSize + rng.Intn(h)
		bw := []int{60, TileSize, rng.Intn(50) + 2}[rng.Intn(3)]
		for x, k := x0, rng.Intn(len(narrow)); x < w; x, k = x+bw, k+1 {
			rects = append(rects, R(x, y0, x+bw, y1))
			colors = append(colors, narrow[k%len(narrow)])
		}
		return rects, colors
	}
	y0 := at(h)
	return feedRows(w, h, y0, rng.Intn(len(narrow)), narrow, rects, colors)
}

// feedRows appends to rects and colors full-width feed rows over a w×h
// buffer from row y0 down: alternating 5-px and 19-px bands in colors
// narrow[k], narrow[k+1], ... (cyclically). Every full tile of a tile row
// then shows what the tile to its left shows.
func feedRows(w, h, y0, k int, narrow []Color, rects []Rect, colors []Color) ([]Rect, []Color) {
	for y := y0; y < h; y, k = y+24, k+2 {
		rects = append(rects, R(0, y, w, y+5), R(0, y+5, w, y+24))
		colors = append(colors, narrow[k%len(narrow)], narrow[(k+1)%len(narrow)])
	}
	return rects, colors
}

// fillTwins holds a tracked buffer driven by FillRects and its tracked
// twin driven by the same rects through one Fill each. (On a plain buffer
// FillRects is that Fill sequence.)
type fillTwins struct {
	rects, fill *Buffer
}

func newFillTwins(w, h int) fillTwins {
	f := fillTwins{New(w, h), New(w, h)}
	f.rects.EnableTiles()
	f.fill.EnableTiles()
	return f
}

// batch applies one batch to both twins and compares their return values.
func (f fillTwins) batch(t *testing.T, step int, rects []Rect, colors []Color) {
	t.Helper()
	want := 0
	for k, r := range rects {
		want += f.fill.Fill(r, colors[k])
	}
	if got := f.rects.FillRects(rects, colors); got != want {
		t.Fatalf("step %d: FillRects = %d, Fill sequence = %d", step, got, want)
	}
}

// check compares the twins (checkSame) and checks FillRects' buffer
// against the palette bookkeeping invariants (checkPalState).
func (f fillTwins) check(t *testing.T, step int) {
	t.Helper()
	checkSame(t, step, f.rects, f.fill)
	checkPalState(t, step, f.rects)
}

// checkSame compares every pixel of buffer a against its twin b and, when
// both track tiles, the buffer generation and every tile generation.
func checkSame(t *testing.T, step int, a, b *Buffer) {
	t.Helper()
	for y := 0; y < a.h; y++ {
		for x := 0; x < a.w; x++ {
			if ca, cb := a.At(x, y), b.At(x, y); ca != cb {
				t.Fatalf("step %d: At(%d,%d) = %08x, twin %08x", step, x, y, ca, cb)
			}
		}
	}
	if !a.TilesEnabled() || !b.TilesEnabled() {
		return
	}
	if a.Gen() != b.Gen() {
		t.Fatalf("step %d: Gen = %d, twin %d", step, a.Gen(), b.Gen())
	}
	for i := 0; i < a.Tiles(); i++ {
		if a.TileGen(i) != b.TileGen(i) {
			t.Fatalf("step %d: tile %d gen = %d, twin %d", step, i, a.TileGen(i), b.TileGen(i))
		}
	}
}

// checkPalState checks a tracked buffer's bookkeeping invariants:
// palTiles counts the compressed tiles, a solid tile (palN == 1) has an
// all-zero plane, and a compressed edge tile has zero nibbles outside the
// screen.
func checkPalState(t *testing.T, step int, a *Buffer) {
	t.Helper()
	ts := a.tiles
	if ts == nil || a.shared != nil {
		return
	}
	n := 0
	for i, pn := range ts.palN {
		if pn == 0 {
			continue
		}
		n++
		r, plane := a.TileRect(i), ts.tilePlane(i)
		for np := 0; np < tilePixels; np++ {
			x, y := r.X0+np&tileMask, r.Y0+np>>TileShift
			if nib := plane[np>>1] >> (uint(np&1) * 4) & 0xF; nib != 0 && (pn == 1 || !r.Contains(x, y)) {
				t.Fatalf("step %d: tile %d (palN %d) has nibble %d at (%d,%d) outside its content", step, i, pn, nib, x, y)
			}
		}
	}
	if n != ts.palTiles {
		t.Fatalf("step %d: palTiles = %d, %d tiles have palN > 0", step, ts.palTiles, n)
	}
}

// TestFillRectsMatchesFill holds FillRects to the Fill sequence it
// replaces: the same pixels, return value and tile generations after
// every batch, from 8×8 to 107×120 and at 720×1280, over fresh, recycled
// and copy-on-write-shared buffers whose tiles already mix solid,
// multi-color and promoted raw representations. A third of the seeds
// draw banded batches (bandBatch) on buffers up to 247×359, whose
// covered tiles FillRects copies from the tile to their left or above;
// fixed batches then draw a tile almost like the one rebuilt before it
// or the one above (partly covered tiles in repeat rows, a partial last
// tile row, rect sets that change between rows, rects reaching only one
// of two rows, empty and inverted rects), so a copy that the copy rules
// must refuse shows. Every batch must also store every tile as the batch
// taken one tile row at a time does (fillByRows, checkSameRepr), and
// leave all three buffers' build stamps honest (checkStamps).
func TestFillRectsMatchesFill(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	narrow := []Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240)}
	var rects []Rect
	var colors []Color
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		w, h := rng.Intn(100)+8, rng.Intn(113)+8
		batches := 6
		banded := seed%3 == 1
		switch {
		case seed%40 == 0:
			w, h, batches = 720, 1280, 3
		case banded:
			w, h = rng.Intn(200)+48, rng.Intn(200)+5*TileSize
		}
		f := newFillTwins(w, h)
		rows := New(w, h) // takes each batch one tile row at a time
		rows.EnableTiles()
		all := []*Buffer{f.rects, f.fill, rows}
		// Prime a mixed representation with single fills of both kinds.
		for n := rng.Intn(8); n > 0; n-- {
			rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
			for k, r := range rects {
				for _, buf := range all {
					buf.Fill(r, colors[k])
				}
			}
		}
		switch rng.Intn(3) {
		case 1:
			for _, buf := range all {
				buf.Recycle()
			}
		case 2:
			src := New(w, h)
			src.EnableTiles()
			rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
			src.FillRects(rects, colors)
			for _, buf := range all {
				buf.ShareFrom(src)
			}
		}
		f.check(t, -1)
		for step := 0; step < batches; step++ {
			if banded && step%3 != 2 {
				rects, colors = bandBatch(rng, w, h, narrow, rects[:0], colors[:0])
			} else {
				rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
			}
			if w == 720 && step == 0 {
				rects = append(rects[:0], videoBands()...)
				colors = colors[:0]
				for k := range rects {
					colors = append(colors, narrow[k%len(narrow)]+Color(seed))
				}
			}
			f.batch(t, step, rects, colors)
			f.check(t, step)
			fillByRows(rows, rects, colors)
			checkSameRepr(t, step, f.rects, rows)
			checkStamps(t, step, f.rects, f.fill, rows)
		}
	}
	// Batches that draw a covered tile almost like the tile rebuilt just
	// before it or the tile above, on buffers whose tiles hold one color
	// each, so a wrong copy shows.
	a, b, c, d := narrow[0], narrow[1], narrow[2], narrow[3]
	vRects, vColors := bands(100, 130, 60, a, b)
	fRects, fColors := bands(70, 100, 0, a, b)
	lastRects, lastColors := bands(100, 247, 20, a, b)
	last359Rects, last359Colors := bands(130, 359, 60, c, d)
	for _, tc := range []struct {
		name   string
		w, h   int
		rects  []Rect
		colors []Color
	}{
		{"row edge moves between tile rows", 64, 96,
			[]Rect{R(0, 0, 64, 5), R(0, 5, 64, 32), R(0, 32, 64, 42), R(0, 42, 64, 64)}, []Color{a, b, a, b}},
		{"band edge moves between tile rows", 64, 128,
			[]Rect{R(0, 0, 10, 64), R(10, 0, 64, 64), R(0, 64, 20, 128), R(20, 64, 64, 128)}, []Color{a, b, a, b}},
		{"same clips, other colors", 64, 128,
			[]Rect{R(0, 0, 10, 64), R(10, 0, 64, 64), R(0, 64, 10, 128), R(10, 64, 64, 128)}, []Color{a, b, c, d}},
		{"same clips, swapped order", 64, 128,
			[]Rect{R(0, 0, 10, 64), R(10, 0, 64, 64), R(10, 64, 64, 128), R(0, 64, 10, 128)}, []Color{a, b, b, a}},
		{"partial-width tile, then a full one", 48, 64,
			[]Rect{R(32, 0, 48, 16), R(32, 16, 48, 32), R(0, 32, 16, 48), R(0, 48, 16, 64)}, []Color{a, b, a, b}},
		{"partial-height tile, then a full one", 64, 48,
			[]Rect{R(0, 32, 16, 48), R(16, 32, 32, 48), R(32, 0, 48, 16), R(48, 0, 64, 16)}, []Color{a, b, a, b}},
		{"rejected tile, then one drawn alike", 64, 32,
			[]Rect{R(0, 0, 10, 20), R(10, 0, 32, 20), R(32, 0, 42, 20), R(42, 0, 64, 20)}, []Color{a, b, a, b}},
		{"vertical bands at partial edges", 100, 130, vRects, vColors},
		{"feed rows at partial edges", 70, 100, fRects, fColors},
		{"partly covered tiles in repeat rows", 96, 128,
			[]Rect{R(0, 0, 10, 128), R(10, 0, 40, 128), R(45, 0, 70, 128), R(75, 0, 96, 128)}, []Color{a, b, c, d}},
		{"bands over a partial last tile row, 247 px", 100, 247, lastRects, lastColors},
		{"bands over a partial last tile row, 359 px", 130, 359, last359Rects, last359Colors},
		{"rect set changes between rows", 64, 128,
			[]Rect{R(0, 0, 10, 128), R(10, 0, 64, 64), R(10, 64, 64, 128)}, []Color{a, b, c}},
		{"rect spans only the row above", 64, 96,
			[]Rect{R(0, 0, 64, 96), R(0, 0, 10, 32), R(20, 0, 30, 32)}, []Color{a, b, c}},
		{"rect spans only the row below", 64, 96,
			[]Rect{R(0, 0, 64, 96), R(0, 32, 10, 64), R(20, 32, 30, 64)}, []Color{a, b, c}},
		{"band starts inside the row above", 64, 128,
			[]Rect{R(0, 0, 10, 128), R(10, 5, 64, 128), R(10, 0, 64, 5)}, []Color{a, b, c}},
		{"empty and inverted rects among bands", 64, 128,
			[]Rect{R(0, 0, 10, 128), R(5, 5, 5, 90), R(10, 0, 64, 128), R(60, 100, 10, 20), R(0, 200, 64, 300)},
			[]Color{a, b, c, d, a}},
	} {
		for pass := 0; pass < 3; pass++ {
			f := newFillTwins(tc.w, tc.h)
			rows := New(tc.w, tc.h) // takes the batch one tile row at a time
			rows.EnableTiles()
			for _, buf := range []*Buffer{f.rects, f.fill, rows} {
				for i := 0; i < buf.Tiles(); i++ {
					tileColor := RGB(uint8(i*53), uint8(i*101), uint8(i*7+pass))
					buf.Fill(buf.TileRect(i), tileColor)
					if pass == 1 { // a two-color tile
						buf.Fill(R(0, 0, 3, 3).Intersect(buf.TileRect(i)), tileColor+1)
					}
				}
				if pass == 2 { // raw tiles
					buf.DisableTiles()
					buf.EnableTiles()
				}
			}
			t.Run(fmt.Sprintf("%s/%d", tc.name, pass), func(t *testing.T) {
				f.batch(t, 0, tc.rects, tc.colors)
				f.check(t, 0)
				fillByRows(rows, tc.rects, tc.colors)
				checkSameRepr(t, 0, f.rects, rows)
				checkStamps(t, 0, f.rects, f.fill, rows)
			})
		}
	}
}

// fillByRows applies a FillRects batch to b one tile row at a time, each
// rect clipped to the row, so no row of a batch repeats the row above
// and every tile is resolved as in an ordinary row. Each tile takes the
// same draw as under the whole batch, so it must end up represented the
// same; only generations differ.
func fillByRows(b *Buffer, rects []Rect, colors []Color) {
	var rr []Rect
	var cc []Color
	for y := 0; y < b.h; y += TileSize {
		rr, cc = rr[:0], cc[:0]
		for k, r := range rects {
			if c := r.Intersect(R(0, y, b.w, y+TileSize)); !c.Empty() {
				rr, cc = append(rr, c), append(cc, colors[k])
			}
		}
		if len(rr) > 0 {
			b.FillRects(rr, cc)
		}
	}
}

// checkSameRepr checks that tracked buffers a and b represent every tile
// alike, where checkSame compares only content: the same palette size,
// palette entries in use and index plane for a compressed tile, the same
// palTiles and the same promotion count. A tile copied instead of built
// must be stored exactly as the build would store it.
func checkSameRepr(t *testing.T, step int, a, b *Buffer) {
	t.Helper()
	ta, tb := a.repr().tiles, b.repr().tiles
	for i, n := range ta.palN {
		if n != tb.palN[i] {
			t.Fatalf("step %d: tile %d palN = %d, twin %d", step, i, n, tb.palN[i])
		}
		if n > 0 && (!slices.Equal(ta.tilePal(i)[:n], tb.tilePal(i)[:n]) || !bytes.Equal(ta.tilePlane(i), tb.tilePlane(i))) {
			t.Fatalf("step %d: tile %d (%v) is stored unlike its twin's", step, i, a.TileRect(i))
		}
	}
	if ta.palTiles != tb.palTiles || ta.promotions != tb.promotions {
		t.Fatalf("step %d: palTiles %d, promotions %d; twin %d, %d", step, ta.palTiles, ta.promotions, tb.palTiles, tb.promotions)
	}
}

// TestFillRectsCopies pins the work the copy rules save, which output
// comparisons cannot see: a 720×1280 video batch rebuilds only its first
// tile row and copies the 19 below it from the row above, and full-width
// feed rows copy every tile of a tile row but the first and the 16-px
// right edge tile from its left neighbour. Each batch must leave every
// tile stored exactly as the same batch taken one tile row at a time,
// and match its Fill sequence.
func TestFillRectsCopies(t *testing.T) {
	narrow := []Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240)}
	video := videoBands()
	videoColors := make([]Color, len(video))
	for k := range videoColors {
		videoColors[k] = narrow[k%len(narrow)]
	}
	feed, feedColors := feedRows(720, 1280, 0, 0, narrow, nil, nil)
	for _, tc := range []struct {
		name   string
		rects  []Rect
		colors []Color
		copies uint64
	}{
		{"video", video, videoColors, 19 * 23},
		{"feed rows", feed, feedColors, 40 * 21},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFillTwins(720, 1280)
			rows := New(720, 1280)
			rows.EnableTiles()
			for _, buf := range []*Buffer{f.rects, f.fill, rows} {
				buf.Recycle()
			}
			for frame := 0; frame < 2; frame++ {
				before := f.rects.tiles.copies
				f.batch(t, frame, tc.rects, tc.colors)
				if n := f.rects.tiles.copies - before; n != tc.copies {
					t.Errorf("frame %d: %d tiles copied, want %d", frame, n, tc.copies)
				}
				f.check(t, frame)
				fillByRows(rows, tc.rects, tc.colors)
				checkSameRepr(t, frame, f.rects, rows)
			}
		})
	}
}

// bands returns rects in colors alternating a and b: vertical bands of
// width bw over a w×h buffer when bw > 0, else full-width feed rows of
// 5-px headers and 19-px bodies; the last band runs past the edge.
func bands(w, h, bw int, a, b Color) ([]Rect, []Color) {
	var rects []Rect
	var colors []Color
	for x, y, k := 0, 0, 0; x < w && y < h; k++ {
		if bw > 0 {
			rects = append(rects, R(x, 0, x+bw, h))
			x += bw
		} else {
			bh := []int{5, 19}[k%2]
			rects = append(rects, R(0, y, w, y+bh))
			y += bh
		}
		colors = append(colors, []Color{a, b}[k%2])
	}
	return rects, colors
}

// TestFillRectsEmptyBatchStaysShared checks that a batch with nothing on
// screen writes nothing, as its Fill sequence would: a copy-on-write view
// stays shared and no generation moves.
func TestFillRectsEmptyBatchStaysShared(t *testing.T) {
	src := New(40, 40)
	src.EnableTiles()
	view := New(40, 40)
	view.EnableTiles()
	view.ShareFrom(src)
	gen := view.Gen()
	if n := view.FillRects([]Rect{R(50, 0, 60, 10), R(5, 5, 5, 9), {}}, []Color{1, 2, 3}); n != 0 {
		t.Fatalf("FillRects of off-screen rects = %d, want 0", n)
	}
	if !view.Shared() || view.Gen() != gen {
		t.Fatalf("empty batch materialized the view (shared=%v) or moved its generation %d → %d",
			view.Shared(), gen, view.Gen())
	}
}

// TestFillRectsLengthMismatchPanics pins the caller-bug contract.
func TestFillRectsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillRects with mismatched slice lengths did not panic")
		}
	}()
	New(8, 8).FillRects([]Rect{R(0, 0, 1, 1)}, nil)
}

// TestFillRectsVideoStaysCompressed checks the representation win the
// kernel exists for: MX Player's bands, repainted frame after frame in
// fresh colors over a recycled screen, leave every video tile compressed
// — each band-edge tile with the two colors it shows — where the Fill
// sequence adds two colors per frame to each band-edge tile until all
// 200 overflow to raw.
func TestFillRectsVideoStaysCompressed(t *testing.T) {
	rects := videoBands()
	colors := make([]Color, len(rects))
	f := newFillTwins(720, 1280)
	f.rects.Recycle() // every tile solid, as a device's framebuffer starts a session
	f.fill.Recycle()
	for frame := 0; frame < 20; frame++ {
		for k := range colors {
			colors[k] = RGB(uint8(frame*37+k*11), uint8(frame*13+k*71), uint8(frame*89+k*5))
		}
		f.batch(t, frame, rects, colors)
	}
	f.check(t, 20)
	if p := f.rects.PalettePromotions(); p != 0 {
		t.Errorf("FillRects promoted %d tiles, want 0", p)
	}
	if p := f.fill.PalettePromotions(); p != 200 {
		t.Errorf("Fill sequence promoted %d tiles, want the 200 band-edge tiles", p)
	}
	ts := f.rects.tiles
	for i, pn := range ts.palN {
		if r := f.rects.TileRect(i); r.Y0 >= 320 && r.Y1 <= 960 && (pn == 0 || pn > 2) {
			t.Fatalf("video tile %d (%v) has palN %d, want 1 or 2", i, r, pn)
		}
	}
}
