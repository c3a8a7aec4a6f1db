package framebuffer

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// Palette-compressed tiles: the *Surface Compression Using Dynamic Color
// Palettes* idea (PAPERS.md), kept on the tile grid of tile.go. Mobile UI
// surfaces are overwhelmingly flat fills over a handful of colors, so a
// tile whose content fits a small dynamic palette stores 4-bit indices
// plus a palette side table — 512 bytes of indices instead of 4 KB of
// pixels — and every kernel that streams tile bytes (blit, compare,
// fill, snapshot) touches 8× less memory.
//
// Representation contract. Every tile-tracked buffer (EnableTiles) carries
// palettes, and compression is a pure representation change, invisible in
// content:
//
//   - When palN[i] > 0, tile i's content is DEFINED by (plane, pal) and
//     the pixel array is stale under it. When palN[i] == 0 the pixel
//     array is authoritative, exactly as before.
//   - Promotion back to raw is transparent: palette overflow on a
//     partial write, or a raw kernel (a partial-tile Blit, a scroll that
//     cannot rebuild a tile from index planes) landing on a compressed
//     tile, realizes the tile into the pixel array first. A
//     fill covering a whole tile resets it to a fresh one-color palette,
//     so flat UI churns between solid palettes, not raw.
//
// Readers must be representation-aware AND sharing-aware: a copy-on-write
// view's content lives on its shared source (which may be compressed, or
// a snapshot with no pixel array at all), while generations stay on the
// view's own tile set. repr() picks the content side of that split.

const (
	// PaletteCap is the maximum palette size of a compressed tile: 4-bit
	// indices address at most 16 colors.
	PaletteCap = 16
	// tilePixels is the pixel count of a full 32×32 tile.
	tilePixels = TileSize * TileSize
	// planeTileBytes is the index-plane storage per tile: two 4-bit
	// indices per byte, even local x in the low nibble.
	planeTileBytes = tilePixels / 2
)

// repr returns the buffer holding b's content representation: the shared
// source while b is a copy-on-write view, b itself otherwise. Content
// (pixels, palettes) is read from repr(); generations are read from b's
// own tile set.
func (b *Buffer) repr() *Buffer {
	if b.shared != nil {
		return b.shared
	}
	return b
}

// PaletteTiles returns the number of tiles currently stored in
// palette-compressed form, read through the content representation — a
// copy-on-write view of a compressed memo screen reports the memo's
// tiles.
func (b *Buffer) PaletteTiles() int {
	rb := b.repr()
	if rb.tiles == nil {
		return 0
	}
	return rb.tiles.palTiles
}

// PalettePromotions returns how many times one of b's own tiles was
// realized back to raw: palette overflows and raw-kernel writes over
// compressed tiles.
func (b *Buffer) PalettePromotions() uint64 {
	if b.tiles == nil {
		return 0
	}
	return b.tiles.promotions
}

// slotOf returns the storage slot of tile i's plane and palette: i itself,
// except in a snapshot, whose alike tiles share slots.
func (t *tileSet) slotOf(i int) int {
	if t.slot != nil {
		return int(t.slot[i])
	}
	return i
}

// tilePal returns tile i's palette storage (PaletteCap entries). It
// resolves the slot itself rather than through slotOf, which keeps it
// cheap enough for palIndex to stay inlinable.
func (t *tileSet) tilePal(i int) []Color {
	if t.slot != nil {
		i = int(t.slot[i])
	}
	return t.pal[i*PaletteCap : (i+1)*PaletteCap : (i+1)*PaletteCap]
}

// tilePlane returns tile i's 512-byte index plane.
func (t *tileSet) tilePlane(i int) []byte {
	if t.slot != nil {
		i = int(t.slot[i])
	}
	return t.plane[i*planeTileBytes : (i+1)*planeTileBytes : (i+1)*planeTileBytes]
}

// alike reports whether compressed tiles a and b are stored alike: the
// same palette size, palette entries in use and index plane. Tiles of one
// size stored alike show the same content, so NewPaletteSnapshot gives
// them the same bytes without re-indexing the second. Equal build stamps
// (in a snapshot, a shared slot) prove it without comparing the bytes: a
// writer gives a tile a stamp another tile holds only together with that
// tile's bytes, and a fresh stamp otherwise.
func (t *tileSet) alike(a, b int) bool {
	n := t.palN[a]
	if n == 0 || n != t.palN[b] {
		return false
	}
	if t.slot != nil && t.slot[a] == t.slot[b] || t.slot == nil && t.stamp[a] == t.stamp[b] {
		return true
	}
	return slices.Equal(t.tilePal(a)[:n], t.tilePal(b)[:n]) && bytes.Equal(t.tilePlane(a), t.tilePlane(b))
}

// rebuilt gives tile i a fresh build stamp, after a kernel wrote its
// stored bytes other than by copying another tile of the set.
func (t *tileSet) rebuilt(i int) {
	t.builds++
	t.stamp[i] = t.builds
}

// palIndex returns tile i's palette index for c, appending c when the
// palette has room, or -1 on overflow.
func (t *tileSet) palIndex(i int, c Color) int {
	pal, n := t.tilePal(i), t.palN[i]
	for k, p := range pal[:n] {
		if p == c {
			return k
		}
	}
	if n == PaletteCap {
		return -1
	}
	pal[n] = c
	t.palN[i]++
	return int(n)
}

// dropPalettes discards all palette state without decoding — used when
// the raw pixel array has just been made authoritative wholesale.
func (t *tileSet) dropPalettes() {
	if t.palTiles == 0 {
		return
	}
	for i := range t.palN {
		t.palN[i] = 0
	}
	t.palTiles = 0
}

// colorAt reads one pixel of content, decoding through the palette when
// the containing tile is compressed. b must be a representation buffer
// (call through repr()).
func (b *Buffer) colorAt(x, y int) Color {
	if t := b.tiles; t != nil && t.palTiles > 0 {
		ti := (y>>TileShift)*t.cols + x>>TileShift
		if t.palN[ti] > 0 {
			np, s := (y&tileMask)<<TileShift+x&tileMask, t.slotOf(ti)
			nib := t.plane[s*planeTileBytes+np>>1] >> (uint(np&1) * 4)
			return t.pal[s*PaletteCap+int(nib&0xF)]
		}
	}
	return b.pix[y*b.w+x]
}

// decodeRun decodes count consecutive nibbles of plane, starting at
// tile-local nibble offset np, through pal into out.
func decodeRun(plane []byte, pal []Color, np int, out []Color) {
	i := 0
	if np&1 == 1 && i < len(out) {
		out[i] = pal[plane[np>>1]>>4&0xF]
		i++
		np++
	}
	for ; i+2 <= len(out); i += 2 {
		bb := plane[np>>1]
		out[i] = pal[bb&0xF]
		out[i+1] = pal[bb>>4&0xF]
		np += 2
	}
	if i < len(out) {
		out[i] = pal[plane[np>>1]&0xF]
	}
}

// readRow copies n pixels of content starting at (x, y) into out,
// decoding palettized tiles. b must be a representation buffer.
func (b *Buffer) readRow(out []Color, x, y, n int) {
	t := b.tiles
	if t == nil || t.palTiles == 0 {
		copy(out[:n], b.pix[y*b.w+x:y*b.w+x+n])
		return
	}
	row := (y >> TileShift) * t.cols
	for n > 0 {
		ti := row + x>>TileShift
		run := TileSize - x&tileMask
		if run > n {
			run = n
		}
		if t.palN[ti] > 0 {
			decodeRun(t.tilePlane(ti), t.tilePal(ti), (y&tileMask)<<TileShift+x&tileMask, out[:run])
		} else {
			copy(out[:run], b.pix[y*b.w+x:y*b.w+x+run])
		}
		out = out[run:]
		x += run
		n -= run
	}
}

// realizeTile decodes compressed tile i back into the raw pixel array
// and drops its palette — the promotion path taken on palette overflow
// and under raw-kernel writes. Content is unchanged, so generations stay
// valid. b must be materialized.
func (b *Buffer) realizeTile(i int) {
	t := b.tiles
	r := b.TileRect(i)
	plane, pal := t.tilePlane(i), t.tilePal(i)
	for y := r.Y0; y < r.Y1; y++ {
		decodeRun(plane, pal, (y&tileMask)<<TileShift+r.X0&tileMask, b.pix[y*b.w+r.X0:y*b.w+r.X1])
	}
	t.palN[i] = 0
	t.palTiles--
	t.promotions++
}

// realizeAll realizes every compressed tile.
func (b *Buffer) realizeAll() {
	t := b.tiles
	if t == nil || t.palTiles == 0 {
		return
	}
	for i := range t.palN {
		if t.palN[i] > 0 {
			b.realizeTile(i)
		}
	}
}

// fillRows is the raw doubling-copy fill kernel (see Fill). r must be
// clamped and non-empty; b must be materialized.
func (b *Buffer) fillRows(r Rect, c Color) {
	first := b.pix[r.Y0*b.w+r.X0 : r.Y0*b.w+r.X1]
	first[0] = c
	for n := 1; n < len(first); n *= 2 {
		copy(first[n:], first[:n])
	}
	for y := r.Y0 + 1; y < r.Y1; y++ {
		copy(b.pix[y*b.w+r.X0:y*b.w+r.X1], first)
	}
}

// fillNibs writes palette index idx into every nibble of the tile-local
// projection of clip (buffer coordinates, within one tile). Each 16-byte
// plane row is two little-endian words in which nibble x sits at bits
// 4x..4x+3 (modulo 64), so a row takes two masked word stores whatever
// its span.
func fillNibs(plane []byte, clip Rect, idx byte) {
	v := uint64(idx) * 0x1111111111111111
	ml, mh := nibSpan(clip.X0&tileMask, (clip.X1-1)&tileMask+1)
	for y := clip.Y0; y < clip.Y1; y++ {
		row := plane[(y&tileMask)*(TileSize/2):][:TileSize/2]
		lo, hi := binary.LittleEndian.Uint64(row), binary.LittleEndian.Uint64(row[8:])
		binary.LittleEndian.PutUint64(row, lo&^ml|v&ml)
		binary.LittleEndian.PutUint64(row[8:], hi&^mh|v&mh)
	}
}

// nibSpan returns the masks of tile-local nibbles [x0, x1) in the low and
// high words of a plane row.
func nibSpan(x0, x1 int) (lo, hi uint64) {
	return nibMask(min(x0, 16), min(x1, 16)), nibMask(max(x0-16, 0), max(x1-16, 0))
}

// nibMask returns the mask of nibbles [a, b) of one word, 0 <= a <= b <=
// 16 (a shift by 64 is 0 in Go, so b == 16 sets the top nibble).
func nibMask(a, b int) uint64 {
	return (1<<(4*b) - 1) &^ (1<<(4*a) - 1)
}

// fillPal is Fill's kernel for tracked buffers: fillTile over
// every tile r touches. r must be clamped and non-empty; b must be
// materialized.
func (b *Buffer) fillPal(r Rect, c Color) {
	t := b.tiles
	for ty := r.Y0 >> TileShift; ty <= (r.Y1-1)>>TileShift; ty++ {
		for tx := r.X0 >> TileShift; tx <= (r.X1-1)>>TileShift; tx++ {
			i := ty*t.cols + tx
			tr := b.TileRect(i)
			b.fillTile(i, tr, tr.Intersect(r), c)
		}
	}
}

// fillTile fills clip, the non-empty part of a fill inside tile i (rect
// tr), with c on a tracked buffer: a fully covered tile resets to
// a fresh single-color palette (a 512-byte memset instead of a 4 KB pixel
// fill), a partially covered compressed tile takes an index fill when c
// fits its palette (promoting to raw on overflow), and a raw tile takes
// the raw row fill. b must be materialized.
func (b *Buffer) fillTile(i int, tr, clip Rect, c Color) {
	t := b.tiles
	if clip == tr {
		if t.palN[i] != 1 {
			// An already-solid tile's plane is zero by invariant;
			// everything else needs the 512-byte plane reset.
			if t.palN[i] == 0 {
				t.palTiles++
			}
			t.palN[i] = 1
			clear(t.tilePlane(i))
		}
		t.tilePal(i)[0] = c
		t.rebuilt(i)
		return
	}
	if t.palN[i] > 0 {
		if idx := t.palIndex(i, c); idx >= 0 {
			fillNibs(t.tilePlane(i), clip, byte(idx))
			t.rebuilt(i)
			return
		}
		b.realizeTile(i)
	}
	b.fillRows(clip, c)
}

// fillBinned is FillRects' kernel for tracked buffers. It marks each
// clamped rect's tiles at its own generation, in call order, exactly as
// its Fill would, and then resolves every touched tile once, tile row by
// tile row, from the rects that reach it in call order. In an ordinary
// row a tile one rect reaches takes fillTile; a tile its rects cover
// completely in at most PaletteCap colors is rebuilt by fillCovered, or
// copied from the last tile fillCovered rebuilt in the row when its rects
// draw alike (sameDraw); any other tile replays its rects through
// fillTile. A row repeats the row above when both are full height and
// every rect reaching either spans both: each of its tiles is then drawn
// exactly like the tile above, so a tile whose tile above was resolved
// as fully covered takes a copy of it, build stamp included, and the rest
// replay. At least one rect must be non-empty once clamped, and b must be
// materialized. The scratch lives on the tile set and is reused, so a
// steady stream of batches does not allocate.
func (b *Buffer) fillBinned(rects []Rect, colors []Color) {
	t := b.tiles
	bounds := b.Bounds()
	ty0, ty1 := t.rows, 0
	for _, r := range rects {
		r = r.Clamp(bounds)
		if r.Empty() {
			continue
		}
		b.touch(r)
		ty0, ty1 = min(ty0, r.Y0>>TileShift), max(ty1, (r.Y1-1)>>TileShift)
	}
	if t.covered == nil {
		t.covered = make([]bool, t.cols)
	}
	ks, lastKs := t.tileK[0], t.tileK[1]
	for ty := ty0; ty <= ty1; ty++ {
		y0, y1 := ty<<TileShift, min((ty+1)<<TileShift, b.h)
		// The rects reaching the row, the tile columns they span, and
		// whether the row repeats the row above.
		row, tx0, tx1 := t.rowK[:0], t.cols, -1
		repeat := y1-y0 == TileSize
		for k, r := range rects {
			r = r.Clamp(bounds)
			if r.Empty() || r.Y0 >= y1 || r.Y1 <= y0-TileSize {
				continue
			}
			if r.Y0 > y0-TileSize || r.Y1 < y1 {
				repeat = false
			}
			if r.Y1 > y0 {
				row = append(row, int32(k))
				tx0, tx1 = min(tx0, r.X0>>TileShift), max(tx1, (r.X1-1)>>TileShift)
			}
		}
		t.rowK = row
		last, lastTr := -1, Rect{} // the last tile fillCovered rebuilt in the row
		for tx := tx0; tx <= tx1; tx++ {
			i := ty*t.cols + tx
			tr := Rect{tx << TileShift, y0, min((tx+1)<<TileShift, b.w), y1}
			if repeat && t.covered[tx] {
				if up := i - t.cols; t.palN[up] == 1 {
					b.fillTile(i, tr, tr, t.tilePal(up)[0])
					t.stamp[i] = t.stamp[up]
				} else {
					t.copyPal(i, t, up)
				}
				t.copies++
				continue
			}
			ks = ks[:0]
			for _, k := range row {
				if r := rects[k]; r.X0 < tr.X1 && tr.X0 < r.X1 {
					ks = append(ks, k)
				}
			}
			covered := false
			switch {
			case len(ks) == 1:
				clip := rects[ks[0]].Intersect(tr)
				b.fillTile(i, tr, clip, colors[ks[0]])
				covered = clip == tr
			case !repeat && last >= 0 && sameDraw(rects, colors, ks, tr, lastKs, lastTr):
				t.copyPal(i, t, last)
				t.copies++
				covered = true
			case !repeat && b.fillCovered(i, tr, rects, colors, ks):
				last, lastTr = i, tr
				ks, lastKs = lastKs, ks
				covered = true
			default:
				for _, k := range ks {
					b.fillTile(i, tr, rects[k].Intersect(tr), colors[k])
				}
			}
			t.covered[tx] = covered
		}
	}
	t.tileK = [2][]int32{ks, lastKs}
}

// sameDraw reports whether rects ks draw over tile tr exactly what rects
// lastKs drew over tile lastTr: the same colors over the same tile-local
// clips, in the same order, on tiles of the same size. fillCovered's
// output depends on nothing else but the tile's nibbles past a partial
// edge, which are zero in every plane, so a tile drawn alike to one it
// rebuilt is that tile's copy. Tiles of a row run left to right, so the
// last rebuilt tile is the one to the left in a full-width row; the
// tiles of a vertical band repeat the row above instead (fillBinned).
func sameDraw(rects []Rect, colors []Color, ks []int32, tr Rect, lastKs []int32, lastTr Rect) bool {
	if len(ks) != len(lastKs) || tr.Dx() != lastTr.Dx() || tr.Dy() != lastTr.Dy() {
		return false
	}
	for j, k := range ks {
		p := lastKs[j]
		c, lc := rects[k].Intersect(tr), rects[p].Intersect(lastTr)
		if colors[k] != colors[p] || c.X0-tr.X0 != lc.X0-lastTr.X0 || c.X1-tr.X0 != lc.X1-lastTr.X0 ||
			c.Y0-tr.Y0 != lc.Y0-lastTr.Y0 || c.Y1-tr.Y0 != lc.Y1-lastTr.Y0 {
			return false
		}
	}
	return true
}

// copyPal makes tile i a copy of st's compressed tile si: its palette
// size, index plane and palette, and its build stamp when st is t.
func (t *tileSet) copyPal(i int, st *tileSet, si int) {
	if t.palN[i] == 0 {
		t.palTiles++
	}
	n := st.palN[si]
	t.palN[i] = n
	copy(t.tilePlane(i), st.tilePlane(si))
	copy(t.tilePal(i), st.tilePal(si)[:n])
	if st == t {
		t.stamp[i] = t.stamp[si]
	} else {
		t.rebuilt(i)
	}
}

// fillCovered resolves tile i (rect tr) under the rects ks of a batch,
// in call order, when together they cover every pixel of the tile in at
// most PaletteCap colors. The tile then gets a fresh palette of the
// colors drawn into it. Rows that the same rects cross form a run whose
// 16-byte nibble row is built once and copied down the run; vertical
// bands make the whole tile one run. Only the tile's own nibbles are
// written: those past a partial edge tile are zero in every plane, so a
// single color leaves the all-zero plane palN == 1 requires. fillCovered
// reports false, writing nothing, when the rects leave a pixel uncovered
// or draw more than PaletteCap colors.
func (b *Buffer) fillCovered(i int, tr Rect, rects []Rect, colors []Color, ks []int32) bool {
	var pal [PaletteCap]Color
	p := snapPal{pal: pal[:]}
	for _, k := range ks {
		if _, ok := p.index(colors[k]); !ok {
			return false
		}
	}
	// Find the runs (tile-local rows y to ends[y]) and check that each
	// covers the tile's width.
	var ends [TileSize]uint8
	full := uint32(1)<<tr.Dx() - 1
	for y := 0; y < tr.Dy(); y = int(ends[y]) {
		end, cover := tr.Dy(), uint32(0)
		for _, k := range ks {
			c := rects[k].Intersect(tr)
			switch y0, y1 := c.Y0-tr.Y0, c.Y1-tr.Y0; {
			case y0 <= y && y < y1:
				cover |= uint32(1)<<(c.X1-tr.X0) - uint32(1)<<(c.X0-tr.X0)
				end = min(end, y1)
			case y0 > y:
				end = min(end, y0)
			}
		}
		if cover != full {
			return false
		}
		ends[y] = uint8(end)
	}
	t := b.tiles
	if t.palN[i] == 0 {
		t.palTiles++
	}
	t.palN[i] = uint8(p.n)
	copy(t.tilePal(i), pal[:p.n])
	t.rebuilt(i)
	const rowBytes = TileSize / 2
	plane := t.tilePlane(i)
	for y := 0; y < tr.Dy(); y = int(ends[y]) {
		run := plane[y*rowBytes : int(ends[y])*rowBytes]
		for _, k := range ks {
			if c := rects[k].Intersect(tr); c.Y0-tr.Y0 <= y && y < c.Y1-tr.Y0 {
				idx, _ := p.index(colors[k])
				fillNibs(run, Rect{c.X0, 0, c.X1, 1}, idx)
			}
		}
		for m := rowBytes; m < len(run); m *= 2 {
			copy(run[m:], run[:m])
		}
	}
	return true
}

// copyAllFrom copies src's full content into b, staying in the palette
// domain tile by tile when both sides are tracked (a snapshot source's
// tiles share slots, and b's copies of them share build stamps). b must be
// materialized and match src's dimensions; src is read through its
// representation.
func (b *Buffer) copyAllFrom(src *Buffer) {
	rs := src.repr()
	st, bt := rs.tiles, b.tiles
	switch {
	case st == nil || st.palTiles == 0:
		copy(b.pix, rs.pix)
		if bt != nil {
			// Stale palettes must not shadow the fresh raw pixels.
			bt.dropPalettes()
		}
	case bt != nil:
		copy(bt.palN, st.palN)
		for i := range bt.palN {
			copy(bt.tilePlane(i), st.tilePlane(i))
			copy(bt.tilePal(i), st.tilePal(i))
			bt.stamp[i] = bt.builds + 1 + uint64(st.slotOf(i))
		}
		bt.builds += uint64(len(bt.palN))
		bt.palTiles = st.palTiles
		if rs.pix != nil {
			copy(b.pix, rs.pix)
		}
	default: // b is plain: decode src row by row
		for y := 0; y < b.h; y++ {
			rs.readRow(b.pix[y*b.w:(y+1)*b.w], 0, y, b.w)
		}
	}
}

// blitPal is Blit's kernel for a tracked buffer: src's rect r, clipped
// to both buffers, lands at the same place in b. Each tile that r covers
// whole takes copyTile; a tile r cuts is realized and takes raw rows. b
// must be materialized.
func (b *Buffer) blitPal(src *Buffer, r Rect) {
	t := b.tiles
	for ty := r.Y0 >> TileShift; ty <= (r.Y1-1)>>TileShift; ty++ {
		for tx := r.X0 >> TileShift; tx <= (r.X1-1)>>TileShift; tx++ {
			i := ty*t.cols + tx
			tr := Rect{tx << TileShift, ty << TileShift, (tx + 1) << TileShift, (ty + 1) << TileShift}
			clip := tr.Intersect(r)
			if clip == tr {
				b.copyTile(src, i, tr)
				continue
			}
			if t.palN[i] > 0 {
				b.realizeTile(i)
			}
			b.copyRows(src, clip)
		}
	}
}

// copyTile copies src's whole tile tr into b's tile i at the same place.
// A compressed source tile lands as its 512-byte index plane and
// palette, 8× fewer bytes than the pixel copy; a raw one drops tile i's
// palette without decoding it, since every pixel is overwritten, and
// takes raw rows.
func (b *Buffer) copyTile(src *Buffer, i int, tr Rect) {
	t := b.tiles
	if st := src.repr().tiles; st != nil && st.palTiles > 0 {
		if si := (tr.Y0>>TileShift)*st.cols + tr.X0>>TileShift; st.palN[si] > 0 {
			t.copyPal(i, st, si)
			return
		}
	}
	if t.palN[i] > 0 {
		t.palN[i] = 0
		t.palTiles--
	}
	b.copyRows(src, tr)
}

// scrollPal is ScrollVert's kernel for tracked buffers: every
// tile that moved (the rect taking content from dy rows away) overlaps is
// rebuilt by scrollTile, and a tile it cannot rebuild is realized and
// takes raw rows. Tile rows run in read-before-write order — bottom-up
// when content moves down — so each tile is read as a source before it is
// rewritten. Within a row, a tile whose inputs are stored like its left
// neighbour's (scrollAlike, checked before the neighbour is rewritten)
// takes a copy of the neighbour's result when scrollTile rebuilt or
// copied it. b must be materialized.
func (b *Buffer) scrollPal(moved Rect, dy int) {
	t := b.tiles
	ty, last, step := moved.Y0>>TileShift, (moved.Y1-1)>>TileShift, 1
	if dy > 0 {
		ty, last, step = last, ty, -1
	}
	for ; ; ty += step {
		// alike: this tile's inputs are stored like its left neighbour's;
		// built: the neighbour is now in the palette domain.
		alike, built := false, false
		for tx := moved.X0 >> TileShift; tx <= (moved.X1-1)>>TileShift; tx++ {
			i := ty*t.cols + tx
			tr := b.TileRect(i)
			mv := tr.Intersect(moved)
			copyLeft := alike && built
			alike = b.scrollAlike(i, tr, mv, moved.X1, dy)
			switch {
			case copyLeft:
				t.copyPal(i, t, i-1)
				t.copies++
			case b.scrollTile(i, tr, mv, dy):
				built = true
			default:
				built = false
				if t.palN[i] > 0 {
					b.realizeTile(i)
				}
				b.moveRows(mv, dy)
			}
		}
		if ty == last {
			return
		}
	}
}

// scrollAlike reports, before tile i (rect tr, moved rows mv) is
// rewritten, whether the tile to its right takes scrollTile's inputs
// stored like tile i's: the move spans it and it is a full tile like
// tile i, its source tiles top and bot are stored alike to tile i's, and
// so is the tile itself unless the move covers both tiles' rows whole.
// scrollTile's output is a function of those inputs, representation
// included, so that tile may take a copy of tile i's result.
func (b *Buffer) scrollAlike(i int, tr, mv Rect, movedX1, dy int) bool {
	t := b.tiles
	top := ((mv.Y0-dy)>>TileShift)*t.cols + tr.X0>>TileShift
	bot := ((mv.Y1-1-dy)>>TileShift)*t.cols + tr.X0>>TileShift
	return movedX1 >= tr.X0+2*TileSize && t.alike(top, top+1) && (bot == top || t.alike(bot, bot+1)) &&
		(mv.Dy() == tr.Dy() || t.alike(i, i+1))
}

// scrollTile rebuilds tile i (rect tr) after the rows of mv take the
// content dy rows away from them. The moved rows are the 16-byte plane
// rows of at most two source tiles in the same tile column, the other
// rows the tile's own; each run of rows is re-indexed from its tile's
// palette into a fresh palette of the colors the rows show. The fresh
// palette is what keeps a scrolling list compressed: kept palettes would
// collect every color scrolled through and overflow within a few steps.
// The tile is built in scratch and written only once it is known to fit;
// scrollTile reports false, writing nothing, when mv does not span the
// tile's width, a contributing tile is raw, or the colors exceed
// PaletteCap. Only the tile's own nibbles are set, so a single color
// leaves the all-zero plane palN == 1 requires.
func (b *Buffer) scrollTile(i int, tr, mv Rect, dy int) bool {
	t := b.tiles
	tx := tr.X0 >> TileShift
	top := ((mv.Y0-dy)>>TileShift)*t.cols + tx
	bot := ((mv.Y1-1-dy)>>TileShift)*t.cols + tx
	if mv.Dx() != tr.Dx() || t.palN[top] == 0 || t.palN[bot] == 0 || (mv != tr && t.palN[i] == 0) {
		return false
	}
	// Tile-local rows [y0, y1) move: up to split they come from top's rows
	// from sy on, the rest from bot's first rows.
	const rowBytes = TileSize / 2
	h, y0, y1 := tr.Dy(), mv.Y0-tr.Y0, mv.Y1-tr.Y0
	sy := (mv.Y0 - dy) & tileMask
	split := min(y1, y0+TileSize-sy)
	own, ownPal := t.tilePlane(i), t.tilePal(i)
	var rows [planeTileBytes]byte
	copy(rows[:y0*rowBytes], own)
	copy(rows[y0*rowBytes:split*rowBytes], t.tilePlane(top)[sy*rowBytes:])
	copy(rows[split*rowBytes:y1*rowBytes], t.tilePlane(bot))
	copy(rows[y1*rowBytes:], own[y1*rowBytes:])
	var pal [PaletteCap]Color
	p := snapPal{pal: pal[:]}
	ml, mh := nibSpan(0, tr.Dx())
	if !p.remapRows(rows[:y0*rowBytes], ownPal, ml, mh) ||
		!p.remapRows(rows[y0*rowBytes:split*rowBytes], t.tilePal(top), ml, mh) ||
		!p.remapRows(rows[split*rowBytes:y1*rowBytes], t.tilePal(bot), ml, mh) ||
		!p.remapRows(rows[y1*rowBytes:h*rowBytes], ownPal, ml, mh) {
		return false
	}
	if t.palN[i] == 0 {
		t.palTiles++
	}
	t.palN[i] = uint8(p.n)
	copy(ownPal, pal[:p.n])
	copy(own, rows[:])
	t.rebuilt(i)
	return true
}

// Recycle returns a parked buffer to the blank content New would hand
// out, so a session reads — and a client that under-paints its first
// frame composes — the same bytes whether a free pool gave it fresh or
// recycled buffers. Any copy-on-write view is dropped without
// materializing, the promotion counter restarts, and every tile is
// touched, since its content changed.
//
// On a tracked buffer the blanking stays in the palette domain:
// every tile becomes a solid one-color palette of zero, so the hand-off
// clears at most 512 bytes of index plane per tile — and nothing at all
// for tiles already solid, whose planes are zero by the palN==1
// invariant — instead of a 4 KB pixel memset. The pixel array is left
// stale underneath; with palN > 0 everywhere it is dead bytes under the
// representation contract. The representation differs from a fresh
// buffer's all-raw zeros, but the content is identical, and the first
// full paint of the next session rebuilds the representation from
// content alone, so nothing downstream can tell the difference. The
// tiles, stored alike, share one build stamp.
func (b *Buffer) Recycle() {
	b.writable()
	if b.shared != nil {
		b.shared = nil
		b.pix, b.spare = b.spare, nil
	}
	t := b.tiles
	if t == nil {
		clear(b.pix)
		return
	}
	t.builds++
	for i := range t.palN {
		if t.palN[i] != 1 {
			clear(t.tilePlane(i))
			t.palN[i] = 1
		}
		t.tilePal(i)[0] = 0
		t.stamp[i] = t.builds
	}
	t.palTiles = t.cols * t.rows
	t.promotions = 0
	b.touchAll()
}

// NewPaletteSnapshot builds a palette-compressed copy of src's current
// content (read through src's representation) without ever allocating a
// raw pixel array — the storage behind the app layer's memoized screens.
// It returns nil when any tile needs more than PaletteCap colors.
//
// The bytes are a function of content alone: each tile lists its colors
// in first-occurrence (row-major) order, and unused palette entries and
// plane nibbles outside a partial edge tile stay zero. Raw source tiles
// are encoded from their pixel rows in place; compressed source tiles are
// re-indexed without decoding: their plane rows are copied and remapped in
// place (see snapPal.remapRows), which visits indices in pixel order and
// so builds the palette encoding the decoded pixels would.
//
// Each run of alike tiles is stored once: tile i shares tile i−1's slot
// (palette and plane) exactly when both are the same size and their
// bytes are equal, so the slot layout is a function of content too. A
// tile whose source is stored like its left neighbour's (alike, or equal
// raw rows) shares without being encoded. A feed screen, whose list rows
// span the screen, then takes ~0.06 MB instead of ~0.55 MB at 720×1280
// (~3.7 MB raw).
//
// A snapshot is read-only: a write through a shared slot would change
// every tile sharing it, so its mutators panic. Views (ShareFrom) copy
// their tiles out on their first write as usual.
func NewPaletteSnapshot(src *Buffer) *Buffer {
	cols, rows := tilesFor(src.w), tilesFor(src.h)
	n := cols * rows
	t := &tileSet{
		cols: cols, rows: rows, gen: 1, tgen: make([]uint64, n),
		palN: make([]uint8, n), palTiles: n, slot: make([]int32, n),
	}
	for i := range t.tgen {
		t.tgen[i] = 1
	}
	b := &Buffer{w: src.w, h: src.h, tiles: t}
	// Slots are built in pooled full-size scratch and copied out once
	// their count is known.
	sc := snapScratch.Get().(*snapStore)
	defer snapScratch.Put(sc)
	if len(sc.pal) < n*PaletteCap {
		sc.plane, sc.pal = make([]byte, n*planeTileBytes), make([]Color, n*PaletteCap)
	}
	rs := src.repr()
	st := rs.tiles
	ns := 0 // slots built
	var r Rect
	for i := range n {
		prev := r
		r = b.TileRect(i)
		same := i > 0 && r.Dx() == prev.Dx() && r.Dy() == prev.Dy()
		if same && rs.storedAlike(i-1, i, prev, r) {
			t.palN[i], t.slot[i] = t.palN[i-1], t.slot[i-1]
			continue
		}
		plane := sc.plane[ns*planeTileBytes : (ns+1)*planeTileBytes]
		pal := sc.pal[ns*PaletteCap : (ns+1)*PaletteCap]
		clear(pal)
		p := snapPal{pal: pal}
		if st != nil && st.palN[i] > 0 {
			// A source palette holds at most PaletteCap colors, so the
			// remap cannot overflow.
			rows := plane[:r.Dy()*TileSize/2]
			copy(rows, st.tilePlane(i))
			clear(plane[len(rows):])
			ml, mh := nibSpan(0, r.Dx())
			p.remapRows(rows, st.tilePal(i), ml, mh)
		} else {
			clear(plane) // encodeRows writes into a zeroed plane
			if !p.encodeRows(plane, rs.pix, rs.w, r) {
				return nil
			}
		}
		t.palN[i] = uint8(p.n)
		if same && t.palN[i] == t.palN[i-1] && slices.Equal(pal, sc.pal[(ns-1)*PaletteCap:ns*PaletteCap]) &&
			bytes.Equal(plane, sc.plane[(ns-1)*planeTileBytes:ns*planeTileBytes]) {
			t.slot[i] = int32(ns - 1)
			continue
		}
		t.slot[i] = int32(ns)
		ns++
	}
	t.plane = slices.Clone(sc.plane[:ns*planeTileBytes])
	t.pal = slices.Clone(sc.pal[:ns*PaletteCap])
	return b
}

// snapStore is NewPaletteSnapshot's scratch: a plane and a palette slot
// per tile of the largest screen snapshot so far.
type snapStore struct {
	plane []byte
	pal   []Color
}

// snapScratch pools snapStores, one per concurrent NewPaletteSnapshot.
var snapScratch = sync.Pool{New: func() any { return new(snapStore) }}

// storedAlike reports whether tiles a and c (rects ra and rc, of one
// size) of representation buffer b are stored alike: both compressed and
// alike, or both raw with equal pixel rows. Their snapshot bytes are then
// equal.
func (b *Buffer) storedAlike(a, c int, ra, rc Rect) bool {
	if t := b.tiles; t != nil && (t.palN[a] > 0 || t.palN[c] > 0) {
		return t.alike(a, c)
	}
	for y := 0; y < ra.Dy(); y++ {
		pa := b.pix[(ra.Y0+y)*b.w+ra.X0 : (ra.Y0+y)*b.w+ra.X1]
		pc := b.pix[(rc.Y0+y)*b.w+rc.X0 : (rc.Y0+y)*b.w+rc.X1]
		if firstDiff(pa, pc) >= 0 {
			return false
		}
	}
	return true
}

// snapPal builds one tile palette in first-occurrence order — a snapshot
// tile, or a tile FillRects or ScrollVert rebuilds — with a one-entry
// cache of the last color looked up.
type snapPal struct {
	pal  []Color // the tile's PaletteCap entries, initially zero
	n    int
	last Color
	idx  byte
}

// idxMap maps the indices of a source tile's palette to those of a
// palette being built, each resolved on first sight.
type idxMap struct {
	spal []Color
	from [PaletteCap]byte // built index of each resolved source index
	seen uint16           // source indices resolved so far
}

// index returns c's palette index, appending c on its first occurrence;
// ok is false when c would be color PaletteCap+1.
func (p *snapPal) index(c Color) (idx byte, ok bool) {
	if c == p.last && p.n > 0 {
		return p.idx, true
	}
	return p.lookup(c)
}

// mapIdx returns the index in p of source index v's color, resolving v
// on first sight; ok is false when that color would overflow p.
func (p *snapPal) mapIdx(s *idxMap, v byte) (idx byte, ok bool) {
	if s.seen>>v&1 == 0 {
		if s.from[v], ok = p.index(s.spal[v]); !ok {
			return 0, false
		}
		s.seen |= 1 << v
	}
	return s.from[v], true
}

// mapWord re-indexes the nibbles of plane word w under nibble mask m from
// s into p and zeroes the nibbles outside m. A word that one index fills
// under m costs one mapIdx. ok is false when p would overflow.
func (p *snapPal) mapWord(s *idxMap, w, m uint64) (uint64, bool) {
	if m == 0 {
		return 0, true
	}
	if v := w >> bits.TrailingZeros64(m) & 0xF; (w^v*0x1111111111111111)&m == 0 {
		idx, ok := p.mapIdx(s, byte(v))
		return uint64(idx) * 0x1111111111111111 & m, ok
	}
	out := uint64(0)
	for k := 0; k < 64; k += 4 {
		if m>>k&0xF == 0 {
			continue
		}
		idx, ok := p.mapIdx(s, byte(w>>k&0xF))
		if !ok {
			return 0, false
		}
		out |= uint64(idx) << k
	}
	return out, true
}

// remapRows re-indexes the 16-byte plane rows of rows in place from
// source palette spal into p, keeping the nibbles under masks ml and mh of
// each row's two words and zeroing the rest. A row repeating the one
// before it reuses its result. It reports false when p would overflow.
func (p *snapPal) remapRows(rows []byte, spal []Color, ml, mh uint64) bool {
	const rowBytes = TileSize / 2
	s := idxMap{spal: spal}
	var w0, w1, o0, o1 uint64
	for k := 0; k < len(rows); k += rowBytes {
		row := rows[k : k+rowBytes]
		r0, r1 := binary.LittleEndian.Uint64(row), binary.LittleEndian.Uint64(row[8:])
		if k == 0 || r0 != w0 || r1 != w1 {
			var ok0, ok1 bool
			o0, ok0 = p.mapWord(&s, r0, ml)
			o1, ok1 = p.mapWord(&s, r1, mh)
			if !ok0 || !ok1 {
				return false
			}
			w0, w1 = r0, r1
		}
		binary.LittleEndian.PutUint64(row, o0)
		binary.LittleEndian.PutUint64(row[8:], o1)
	}
	return true
}

// lookup is index without the cache.
func (p *snapPal) lookup(c Color) (idx byte, ok bool) {
	k := 0
	for k < p.n && p.pal[k] != c {
		k++
	}
	if k == p.n {
		if k == PaletteCap {
			return 0, false
		}
		p.pal[k] = c
		p.n++
	}
	p.last, p.idx = c, byte(k)
	return p.idx, true
}

// encodeRows encodes raw tile rect r of pix (row stride w) into plane,
// which must be zeroed. r starts on a tile corner, so every row starts on
// a whole plane byte and each pixel pair fills one byte. A one-color row
// costs one lookup and a byte fill.
func (p *snapPal) encodeRows(plane []byte, pix []Color, w int, r Rect) bool {
	for y := r.Y0; y < r.Y1; y++ {
		row := pix[y*w+r.X0 : y*w+r.X1]
		out := plane[(y&tileMask)*TileSize/2:][:(len(row)+1)/2]
		if uniform(row) {
			idx, ok := p.index(row[0])
			if !ok {
				return false
			}
			if idx != 0 { // the plane starts zeroed
				k := 0
				for ; k+8 <= len(out); k += 8 {
					binary.LittleEndian.PutUint64(out[k:], uint64(idx)*0x1111111111111111)
				}
				for ; k < len(out); k++ {
					out[k] = idx | idx<<4
				}
				if len(row)&1 == 1 {
					out[len(out)-1] = idx
				}
			}
			continue
		}
		k := 0
		for ; k+1 < len(row); k += 2 {
			lo, ok := p.index(row[k])
			if !ok {
				return false
			}
			hi, ok := p.index(row[k+1])
			if !ok {
				return false
			}
			out[k/2] = lo | hi<<4
		}
		if k < len(row) {
			lo, ok := p.index(row[k])
			if !ok {
				return false
			}
			out[k/2] = lo
		}
	}
	return true
}

// uniform reports whether every pixel of row equals row[0], eight pixels
// per branch with firstDiff's XOR fold.
func uniform(row []Color) bool {
	c := row[0]
	k := 0
	for ; k+8 <= len(row); k += 8 {
		x := row[k : k+8 : k+8]
		if (x[0]^c)|(x[1]^c)|(x[2]^c)|(x[3]^c)|(x[4]^c)|(x[5]^c)|(x[6]^c)|(x[7]^c) != 0 {
			return false
		}
	}
	for ; k < len(row); k++ {
		if row[k] != c {
			return false
		}
	}
	return true
}
