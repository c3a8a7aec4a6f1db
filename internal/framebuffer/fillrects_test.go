package framebuffer

import (
	"math/rand"
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
// multi-color and promoted raw representations.
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
		if seed%40 == 0 {
			w, h, batches = 720, 1280, 3
		}
		f := newFillTwins(w, h)
		// Prime a mixed representation with single fills of both kinds.
		for n := rng.Intn(8); n > 0; n-- {
			rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
			for k, r := range rects {
				f.rects.Fill(r, colors[k])
				f.fill.Fill(r, colors[k])
			}
		}
		switch rng.Intn(3) {
		case 1:
			f.rects.Recycle()
			f.fill.Recycle()
		case 2:
			src := New(w, h)
			src.EnableTiles()
			rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
			src.FillRects(rects, colors)
			f.rects.ShareFrom(src)
			f.fill.ShareFrom(src)
		}
		f.check(t, -1)
		for step := 0; step < batches; step++ {
			rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
			if w == 720 && step == 0 {
				rects = append(rects[:0], videoBands()...)
				colors = colors[:0]
				for k := range rects {
					colors = append(colors, narrow[k%len(narrow)]+Color(seed))
				}
			}
			f.batch(t, step, rects, colors)
			f.check(t, step)
		}
	}
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
