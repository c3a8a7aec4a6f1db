// Package framebuffer models the pixel storage of the simulated device:
// RGBX pixel buffers, damage rectangles, and the sparse sampling grids used
// by the paper's grid-based comparison technique.
//
// The content rate meter in internal/core operates on real pixel data from
// these buffers, exactly as the paper's implementation reads the Android
// framebuffer, so classification of frames as content vs redundant is done
// by actual comparison rather than by trusting workload annotations.
package framebuffer

import "fmt"

// Color is a packed 0x00RRGGBB pixel. The Galaxy S3 framebuffer is RGBX8888;
// the padding byte carries no information so we keep it zero.
type Color uint32

// RGB packs three 8-bit channels into a Color.
func RGB(r, g, b uint8) Color {
	return Color(uint32(r)<<16 | uint32(g)<<8 | uint32(b))
}

// RGB returns the three 8-bit channels of c.
func (c Color) RGB() (r, g, b uint8) {
	return uint8(c >> 16), uint8(c >> 8), uint8(c)
}

// Luminance returns the Rec.601 luma of c in [0, 255]. It feeds the OLED
// panel power model, where emitted light (hence power) tracks pixel
// luminance.
func (c Color) Luminance() float64 {
	r, g, b := c.RGB()
	return 0.299*float64(r) + 0.587*float64(g) + 0.114*float64(b)
}

// Common colors used by the procedural app renderers.
var (
	Black = RGB(0, 0, 0)
	White = RGB(255, 255, 255)
)

// Buffer is a width × height pixel surface stored row-major.
//
// A buffer may additionally carry tile-tracking state with palette
// compression (EnableTiles) and may temporarily alias another buffer's
// pixels as a copy-on-write view (ShareFrom); both are defined in
// tile.go. Plain buffers pay nothing for either feature.
type Buffer struct {
	w, h int
	pix  []Color

	// Copy-on-write view state (see ShareFrom/own in tile.go): while
	// shared is non-nil, pix aliases shared.pix and spare parks this
	// buffer's own storage for materialization on first write.
	shared *Buffer
	spare  []Color

	// tiles is the optional 32×32 tile-tracking state (see tile.go).
	tiles *tileSet
}

// New allocates a zeroed (black) buffer. Width and height must be positive.
func New(w, h int) *Buffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("framebuffer: invalid size %dx%d", w, h))
	}
	return &Buffer{w: w, h: h, pix: make([]Color, w*h)}
}

// Width returns the buffer width in pixels.
func (b *Buffer) Width() int { return b.w }

// Height returns the buffer height in pixels.
func (b *Buffer) Height() int { return b.h }

// Bounds returns the full-buffer rectangle.
func (b *Buffer) Bounds() Rect { return Rect{0, 0, b.w, b.h} }

// Pix exposes the raw row-major pixel slice for zero-copy scanning by the
// meter and the OLED power model. Callers must not resize it. Because the
// returned slice can be written through, a copy-on-write view is
// materialized and every palette-compressed tile is realized first;
// in-package readers go through the representation instead.
func (b *Buffer) Pix() []Color {
	b.own()
	b.realizeAll()
	return b.pix
}

// At returns the pixel at (x, y), reading through the content
// representation (shared source, palette decode). Out-of-bounds access
// panics (slice bounds).
func (b *Buffer) At(x, y int) Color { return b.repr().colorAt(x, y) }

// Set writes the pixel at (x, y). On a palette-compressed tile the write
// stays in the index plane while c fits the palette; overflow promotes
// the tile to raw.
func (b *Buffer) Set(x, y int, c Color) {
	b.own()
	if t := b.tiles; t != nil {
		ti := (y>>TileShift)*t.cols + x>>TileShift
		t.gen++
		t.tgen[ti] = t.gen
		if t.palN[ti] > 0 {
			if idx := t.palIndex(ti, c); idx >= 0 {
				np := (y&tileMask)<<TileShift + x&tileMask
				sh := uint(np&1) * 4
				plane := t.tilePlane(ti)
				plane[np>>1] = plane[np>>1]&^(0xF<<sh) | byte(idx)<<sh
				t.rebuilt(ti)
				return
			}
			b.realizeTile(ti)
		}
	}
	b.pix[y*b.w+x] = c
}

// Fill sets every pixel in r (clamped to the buffer) to c and returns the
// number of pixels written. On tracked buffers the fill runs in the index
// domain where it can (see fillPal); otherwise the first row is
// painted by doubling copies and replicated into the remaining rows with
// copy, so the bulk of the work runs at memmove speed instead of one
// store per pixel.
func (b *Buffer) Fill(r Rect, c Color) int {
	r = r.Clamp(b.Bounds())
	if r.Empty() {
		return 0
	}
	b.own()
	if b.tiles != nil {
		b.fillPal(r, c)
	} else {
		b.fillRows(r, c)
	}
	b.touch(r)
	return r.Area()
}

// FillRects fills each rects[k] (clamped to the buffer) with colors[k],
// in order, and returns the number of pixels written. Content, return
// value and every tile generation equal those of the same sequence of
// Fill calls; only the representation may differ. On tracked buffers
// each touched tile is resolved once for the whole batch (see
// fillBinned), so a tile that several rects cover is written once, into a
// fresh palette, instead of collecting every rect's color until it
// overflows to raw. The slices must have equal lengths.
func (b *Buffer) FillRects(rects []Rect, colors []Color) int {
	if len(rects) != len(colors) {
		panic(fmt.Sprintf("framebuffer: FillRects with %d rects and %d colors", len(rects), len(colors)))
	}
	if b.tiles == nil {
		n := 0
		for k, r := range rects {
			n += b.Fill(r, colors[k])
		}
		return n
	}
	area := 0
	for _, r := range rects {
		area += r.Clamp(b.Bounds()).Area()
	}
	if area == 0 {
		return 0
	}
	b.own()
	b.fillBinned(rects, colors)
	return area
}

// FillAll sets the whole buffer to c.
func (b *Buffer) FillAll(c Color) int { return b.Fill(b.Bounds(), c) }

// CopyFrom makes b an exact copy of src. The buffers must have identical
// dimensions.
func (b *Buffer) CopyFrom(src *Buffer) {
	if b.w != src.w || b.h != src.h {
		panic(fmt.Sprintf("framebuffer: CopyFrom size mismatch %dx%d vs %dx%d", b.w, b.h, src.w, src.h))
	}
	b.own()
	b.copyAllFrom(src)
	b.touchAll()
}

// Blit copies the r portion of src to the same place in b, clipping
// against both buffers, and returns the number of pixels copied. On a
// tracked buffer the copy runs tile by tile (see blitPal), so compressed
// source tiles land as index planes.
func (b *Buffer) Blit(src *Buffer, r Rect) int {
	r = r.Clamp(b.Bounds()).Clamp(src.Bounds())
	if r.Empty() {
		return 0
	}
	b.own()
	if b.tiles != nil {
		b.blitPal(src, r)
	} else {
		b.copyRows(src, r)
	}
	b.touch(r)
	return r.Area()
}

// ScrollVert shifts the content of region r vertically by dy pixels
// (positive dy moves content down the screen, as when a user scrolls up a
// list). Rows vacated by the shift are left untouched for the caller to
// repaint. It returns the rectangle the caller must repaint. On a
// tracked buffer with compressed tiles the shift runs in the
// index domain (see scrollPal); otherwise rows move as raw pixels.
func (b *Buffer) ScrollVert(r Rect, dy int) Rect {
	r = r.Clamp(b.Bounds())
	if r.Empty() || dy == 0 {
		return Rect{}
	}
	if abs(dy) >= r.Dy() {
		return r // everything scrolled out; repaint all (no pixels written)
	}
	b.own()
	// moved takes the content dy rows away from it; vacated is left over.
	moved, vacated := Rect{r.X0, r.Y0 + dy, r.X1, r.Y1}, Rect{r.X0, r.Y0, r.X1, r.Y0 + dy}
	if dy < 0 {
		moved, vacated = Rect{r.X0, r.Y0, r.X1, r.Y1 + dy}, Rect{r.X0, r.Y1 + dy, r.X1, r.Y1}
	}
	if t := b.tiles; t != nil && t.palTiles > 0 {
		b.scrollPal(moved, dy)
	} else {
		b.moveRows(moved, dy)
	}
	b.touch(moved)
	return vacated
}

// moveRows copies into each row of dst the content dy rows above it
// (below for negative dy) as raw pixels, decoding compressed source
// tiles, in read-before-write order: bottom-up when content moves down.
// b must be materialized, and the tiles under dst raw.
func (b *Buffer) moveRows(dst Rect, dy int) {
	for k := 0; k < dst.Dy(); k++ {
		y := dst.Y0 + k
		if dy > 0 {
			y = dst.Y1 - 1 - k
		}
		b.readRow(b.pix[y*b.w+dst.X0:y*b.w+dst.X1], dst.X0, y-dy, dst.Dx())
	}
}

// Equal reports whether b and o hold identical pixels, reading both sides
// through their content representations. Buffers of different dimensions
// are never equal.
func (b *Buffer) Equal(o *Buffer) bool {
	if b.w != o.w || b.h != o.h {
		return false
	}
	rb, ro := b.repr(), o.repr()
	bp := rb.tiles != nil && rb.tiles.palTiles > 0
	op := ro.tiles != nil && ro.tiles.palTiles > 0
	if !bp && !op {
		return firstDiff(rb.pix, ro.pix) < 0
	}
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			if rb.colorAt(x, y) != ro.colorAt(x, y) {
				return false
			}
		}
	}
	return true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
