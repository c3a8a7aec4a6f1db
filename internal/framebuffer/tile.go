package framebuffer

import "fmt"

// Tile layer: a fixed 32×32 grid over a buffer with per-tile mutation
// generations. Every mutator marks the tiles it writes, so a tile whose
// generation is unchanged is bitwise unchanged. The converse does not
// hold: a mutator may mark a tile its rect barely grazes. The meter uses
// this to restrict its grid comparison to tiles written since its last
// observation (DeltaCompare), and palette compression (palette.go)
// keeps its per-tile state on the same grid.
//
// Tracking is opt-in per buffer (EnableTiles) and always carries palette
// compression: a buffer is either plain, paying nothing for either, or
// tracked and palettized.

// Tile geometry: fixed 32×32 pixel tiles (TileShift = 5). On the
// 720×1280 Galaxy S3 screen this yields a 23×40 = 920-tile grid.
const (
	TileShift = 5
	TileSize  = 1 << TileShift
	tileMask  = TileSize - 1
)

// tilesFor returns the number of tiles covering extent pixels.
func tilesFor(extent int) int { return (extent + tileMask) >> TileShift }

// tileSet is a buffer's tile-tracking state.
type tileSet struct {
	cols, rows int
	// gen is the buffer's mutation generation, bumped by every mutating
	// call; tgen[i] records the generation at which tile i was last
	// written. tgen[i] <= G proves tile i is bitwise unchanged since the
	// moment the buffer's generation was G.
	gen  uint64
	tgen []uint64
	// stamp names the build of each tile's stored bytes (palN, pal[:palN],
	// plane): two compressed tiles with equal stamps are stored alike, so
	// alike needs no byte compare for them. A kernel that builds a tile's
	// bytes gives it a fresh stamp from builds; one that copies a tile of
	// the same set gives it the source's stamp. stamp shares tgen's
	// allocation; it is nil in a snapshot, whose shared slots serve as
	// stamps.
	stamp  []uint64
	builds uint64

	// Palette compression state (see palette.go): while palN[i] > 0 tile
	// i's content is defined by its slot of pal and plane and the pixel
	// array is stale under it.
	palN     []uint8 // palette size per tile; 0 = raw
	plane    []byte  // 4-bit index plane, planeTileBytes per slot
	pal      []Color // PaletteCap entries per slot
	palTiles int     // tiles currently palettized
	// slot maps each tile to its plane and palette slot in a snapshot
	// (NewPaletteSnapshot), where a run of alike tiles shares one slot;
	// nil everywhere else, where tile i's slot is i.
	slot []int32
	// promotions counts pal → raw realizations (palette overflow and
	// raw-kernel writes over compressed tiles).
	promotions uint64
	// copies counts tiles FillRects and ScrollVert resolved as a copy of
	// another tile's result instead of building them.
	copies uint64
	// FillRects scratch (see fillBinned), reused across batches: the
	// rects reaching the tile row being resolved; the rects reaching the
	// tile being resolved and the last tile fillCovered rebuilt; and per
	// tile column whether the row's tile was resolved as fully covered.
	rowK    []int32
	tileK   [2][]int32
	covered []bool
}

// EnableTiles turns on tile tracking and palette compression for b. It is
// idempotent; dimensions are fixed at the buffer's, so pooled buffers
// keep their tracking and palette state across reuse under the same
// contract as their pixels. Every tile starts raw and marked written at
// generation 1.
func (b *Buffer) EnableTiles() {
	if b.tiles != nil {
		return
	}
	cols, rows := tilesFor(b.w), tilesFor(b.h)
	n := cols * rows
	tg := make([]uint64, 2*n)
	t := &tileSet{
		cols: cols, rows: rows, gen: 1, tgen: tg[:n:n], stamp: tg[n:],
		palN: make([]uint8, n), plane: make([]byte, n*planeTileBytes), pal: make([]Color, n*PaletteCap),
	}
	for i := range t.tgen {
		t.tgen[i] = 1
	}
	b.tiles = t
}

// DisableTiles realizes every compressed tile back to raw pixels and
// drops tile tracking, leaving b a plain buffer with the same content.
// Safe on a plain buffer.
func (b *Buffer) DisableTiles() {
	if b.tiles == nil {
		return
	}
	b.own()
	b.realizeAll()
	b.tiles = nil
}

// TilesEnabled reports whether b tracks tiles.
func (b *Buffer) TilesEnabled() bool { return b.tiles != nil }

// Gen returns the buffer's mutation generation (0 when tracking is
// disabled). Any write through the buffer's mutators increases it.
func (b *Buffer) Gen() uint64 {
	if b.tiles == nil {
		return 0
	}
	return b.tiles.gen
}

// TileDims returns the tile-grid dimensions (0, 0 when disabled).
func (b *Buffer) TileDims() (cols, rows int) {
	if b.tiles == nil {
		return 0, 0
	}
	return b.tiles.cols, b.tiles.rows
}

// Tiles returns the number of tiles (0 when disabled).
func (b *Buffer) Tiles() int {
	if b.tiles == nil {
		return 0
	}
	return b.tiles.cols * b.tiles.rows
}

// TileGen returns the generation at which tile i was last written.
func (b *Buffer) TileGen(i int) uint64 { return b.tiles.tgen[i] }

// TileRect returns tile i's pixel rectangle, clamped to the buffer
// bounds (edge tiles of a non-multiple-of-32 buffer are partial).
func (b *Buffer) TileRect(i int) Rect {
	t := b.tiles
	tx, ty := i%t.cols, i/t.cols
	return Rect{tx << TileShift, ty << TileShift, (tx + 1) << TileShift, (ty + 1) << TileShift}.
		Clamp(b.Bounds())
}

// touch marks every tile overlapping r as written at a fresh generation.
// r is clamped defensively: out-of-bounds or inverted rectangles from a
// hostile damage report must not index the tile table with negative or
// overflowing tile coordinates.
func (b *Buffer) touch(r Rect) {
	t := b.tiles
	if t == nil {
		return
	}
	r = r.Clamp(b.Bounds())
	if r.Empty() {
		return
	}
	t.gen++
	g := t.gen
	tx0, ty0 := r.X0>>TileShift, r.Y0>>TileShift
	tx1, ty1 := (r.X1-1)>>TileShift, (r.Y1-1)>>TileShift
	for ty := ty0; ty <= ty1; ty++ {
		row := t.tgen[ty*t.cols+tx0 : ty*t.cols+tx1+1]
		for i := range row {
			row[i] = g
		}
	}
}

// touchAll marks every tile written (whole-buffer mutation).
func (b *Buffer) touchAll() {
	t := b.tiles
	if t == nil {
		return
	}
	t.gen++
	g := t.gen
	for i := range t.tgen {
		t.tgen[i] = g
	}
}

// own materializes a copy-on-write buffer before its first mutation: the
// shared source's content is copied into the buffer's parked storage,
// which becomes its private pixel array again (palette state transfers
// tile by tile when both sides hold palettes; a source the buffer cannot
// represent is decoded). Reads never materialize. Every mutator but
// Recycle calls it first, so it also refuses writes to a snapshot.
func (b *Buffer) own() {
	b.writable()
	if b.shared == nil {
		return
	}
	src := b.shared
	b.pix = b.spare
	b.spare = nil
	b.shared = nil
	b.copyAllFrom(src)
}

// writable panics when b is a snapshot (NewPaletteSnapshot): its alike
// tiles share storage, so a write through one would change them all.
func (b *Buffer) writable() {
	if b.tiles != nil && b.tiles.slot != nil {
		panic("framebuffer: write to a palette snapshot")
	}
}

// ShareFrom turns b into a zero-copy view of src's pixels: reads are
// served from src and the first mutation copies src's content into b's
// own storage before applying (copy-on-write). The buffers must have
// identical dimensions and src must not itself be sharing. src must stay
// immutable while shared — the app layer uses this for memoized install
// screens, which are written once and then only ever read.
//
// Sharing counts as a whole-buffer mutation for tile tracking (the
// visible content changes entirely), so generations stay conservative.
func (b *Buffer) ShareFrom(src *Buffer) {
	b.share(src, "ShareFrom")
	b.touchAll()
}

// ShareFromDamage is ShareFrom for consecutive memoized content states:
// b — currently holding state k, owned or already a view — becomes a
// view of src (state k+1), and only tiles under the damage rects are
// marked written. The caller guarantees the damage contract: rects cover
// every pixel differing between states k and k+1, so the meter and
// compositor see exactly the tile churn a real paint of the transition
// would have caused, instead of a whole-screen invalidation.
func (b *Buffer) ShareFromDamage(src *Buffer, rects []Rect) {
	b.share(src, "ShareFromDamage")
	for _, r := range rects {
		b.touch(r)
	}
}

// share turns b into a copy-on-write view of src for the named caller,
// parking b's own storage unless it is already a view.
func (b *Buffer) share(src *Buffer, op string) {
	b.writable()
	if b.w != src.w || b.h != src.h {
		panic(fmt.Sprintf("framebuffer: %s size mismatch %dx%d vs %dx%d", op, b.w, b.h, src.w, src.h))
	}
	if src.shared != nil {
		panic("framebuffer: " + op + " of a buffer that is itself sharing")
	}
	if src == b {
		panic("framebuffer: " + op + " self")
	}
	if b.shared == nil {
		b.spare = b.pix
	}
	b.shared = src
	b.pix = src.pix
}

// Shared reports whether b is currently a copy-on-write view.
func (b *Buffer) Shared() bool { return b.shared != nil }

// copyRows copies src's rect r into the same place in b, decoding
// compressed source tiles. The caller has already clipped r to both
// buffers, materialized b, and realized any compressed destination tiles
// under r.
func (b *Buffer) copyRows(src *Buffer, r Rect) {
	rs := src.repr()
	if rs.tiles == nil || rs.tiles.palTiles == 0 {
		for y := r.Y0; y < r.Y1; y++ {
			copy(b.pix[y*b.w+r.X0:y*b.w+r.X1], rs.pix[y*rs.w+r.X0:y*rs.w+r.X1])
		}
		return
	}
	for y := r.Y0; y < r.Y1; y++ {
		rs.readRow(b.pix[y*b.w+r.X0:y*b.w+r.X1], r.X0, y, r.Dx())
	}
}

// TileLattice stores a comparison Grid's lattice points in tile order
// (CSR layout): the points inside each 32×32 tile form one contiguous
// run, ascending by lattice index, so the meter can compare only the
// runs of tiles written since its last observation, each resolved once
// through its tile's representation. Combined with the generation
// contract — an unwritten tile is bitwise unchanged — the restricted
// comparison returns exactly the verdict and first-diff index of a
// full-lattice scan.
//
// The committed lattice a caller keeps for DeltaCompare is in the same
// tile order: committed[j] holds the point whose lattice index is
// lat[j].
type TileLattice struct {
	g     Grid
	start []int32  // per tile, the offset of its run (len tiles+1)
	lat   []int32  // per run position, the lattice index
	pix   []int32  // per run position, the row-major pixel offset
	nib   []uint16 // per run position, the tile-local nibble offset
}

// NewTileLattice precomputes the tile-ordered point tables. lat and pix
// share one allocation and the runs are laid out without a cursor array,
// so a lattice costs four allocations: perfgate pins the allocation
// counts of device set-up.
func NewTileLattice(g Grid) *TileLattice {
	nt := tilesFor(g.w) * tilesFor(g.h)
	n := g.Samples()
	lp := make([]int32, 2*n)
	tl := &TileLattice{g: g, start: make([]int32, nt+1), lat: lp[:n:n], pix: lp[n:], nib: make([]uint16, n)}
	// Count each tile's points and sum them, so start[ti] is the end of
	// tile ti's run; placing the points last to first then moves it down
	// to the run's start and keeps each run ascending.
	for _, ti := range g.tileOf {
		tl.start[ti]++
	}
	for ti := 1; ti <= nt; ti++ {
		tl.start[ti] += tl.start[ti-1]
	}
	for i := n - 1; i >= 0; i-- {
		ti := g.tileOf[i]
		tl.start[ti]--
		j := tl.start[ti]
		tl.lat[j], tl.pix[j], tl.nib[j] = int32(i), g.flat[i], uint16(g.nibPos[i])
	}
	return tl
}

// DeltaCompare compares buf's lattice points against committed (in tile
// order), restricted to tiles written after sinceGen, updating committed
// in place for every differing point. It returns the minimum differing
// lattice index, or -1 when no compared point differs. sinceGen 0
// compares every tile: the first observation of a buffer, which leaves
// committed equal to its lattice whatever it held before.
//
// Each dirty tile's run is resolved once, by the tile's representation:
// a solid tile compares the run against its one color, a compressed tile
// decodes the run's nibbles through its palette, and a raw tile gathers
// pixels. The tile's first differing position maps through lat to its
// smallest differing lattice index.
//
// Exactness: a tile with tgen <= sinceGen is bitwise unchanged since the
// generation snapshot, and committed held the then-current lattice
// values (maintained inductively by the in-place updates), so skipped
// points cannot differ. The minimum index over dirty tiles therefore
// equals the first-diff index of a full scan, and the all-clean case is
// exactly the redundant-frame verdict.
func (tl *TileLattice) DeltaCompare(buf *Buffer, committed []Color, sinceGen uint64) int {
	if buf.w != tl.g.w || buf.h != tl.g.h {
		panic(fmt.Sprintf("framebuffer: DeltaCompare on %dx%d buffer with %dx%d lattice screen",
			buf.w, buf.h, tl.g.w, tl.g.h))
	}
	t := buf.tiles
	if t == nil {
		panic("framebuffer: DeltaCompare on a buffer without tile tracking")
	}
	if len(committed) != tl.g.Samples() {
		panic(fmt.Sprintf("framebuffer: DeltaCompare committed length %d, want %d", len(committed), tl.g.Samples()))
	}
	// Content is read through the representation: the metered buffer may
	// be a copy-on-write view of a memoized screen (tracked or plain), and
	// dirty tiles may be palette-compressed. Generations always come from
	// buf's own tile set — a view tracks its own churn.
	rb := buf.repr()
	rt := rb.tiles
	min := -1
	for ti, tg := range t.tgen {
		if tg <= sinceGen {
			continue
		}
		s, e := tl.start[ti], tl.start[ti+1]
		run := committed[s:e]
		var d int
		switch {
		case rt == nil || rt.palN[ti] == 0:
			d = gatherDiff(run, rb.pix, tl.pix[s:e])
		case rt.palN[ti] == 1:
			d = solidDiff(run, rt.tilePal(ti)[0])
		default:
			d = planeDiff(run, (*[planeTileBytes]byte)(rt.tilePlane(ti)), (*[PaletteCap]Color)(rt.tilePal(ti)), tl.nib[s:e])
		}
		if d >= 0 {
			if li := int(tl.lat[int(s)+d]); min < 0 || li < min {
				min = li
			}
		}
	}
	return min
}

// solidDiff compares run against c, the color of a solid tile, and sets
// it to c. It returns the first differing position, or -1. planeDiff
// would return the same (a solid tile's plane is all zero), but a
// re-filled solid tile keeps its plane untouched (see fillTile), so
// decoding it would pull a cold 512-byte plane into cache for nothing.
func solidDiff(run []Color, c Color) int {
	for j, v := range run {
		if v != c {
			for k := j; k < len(run); k++ {
				run[k] = c
			}
			return j
		}
	}
	return -1
}

// planeDiff compares run against a compressed tile's content at the
// tile-local nibble offsets nib, decoded through pal, and refreshes run
// from the first differing position on. It returns that position, or -1.
func planeDiff(run []Color, plane *[planeTileBytes]byte, pal *[PaletteCap]Color, nib []uint16) int {
	run = run[:len(nib)]
	at := func(np uint16) Color { return pal[plane[(np>>1)&(planeTileBytes-1)]>>((np&1)*4)&0xF] }
	for j, np := range nib {
		if at(np) != run[j] {
			for k := j; k < len(nib); k++ {
				run[k] = at(nib[k])
			}
			return j
		}
	}
	return -1
}

// gatherDiff compares run against the raw pixels at offsets at and
// refreshes run from the first differing position on. It returns that
// position, or -1.
func gatherDiff(run, pix []Color, at []int32) int {
	run = run[:len(at)]
	for j, p := range at {
		if pix[p] != run[j] {
			for k := j; k < len(at); k++ {
				run[k] = pix[at[k]]
			}
			return j
		}
	}
	return -1
}
