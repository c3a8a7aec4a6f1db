package framebuffer

import (
	"math/rand"
	"testing"
)

// randRect draws a rectangle roughly within (and sometimes beyond) a
// w × h buffer, including inverted and zero-area shapes.
func randRectIn(rng *rand.Rand, w, h int) Rect {
	return Rect{
		X0: rng.Intn(w+40) - 20,
		Y0: rng.Intn(h+40) - 20,
		X1: rng.Intn(w+40) - 20,
		Y1: rng.Intn(h+40) - 20,
	}
}

// mutate applies one random mutator to buf (and mirrors it onto ref when
// non-nil), exercising every write path that must maintain tile state.
func mutate(rng *rand.Rand, buf, ref *Buffer, aux *Buffer) {
	w, h := buf.Width(), buf.Height()
	switch rng.Intn(5) {
	case 0:
		r := randRectIn(rng, w, h)
		c := Color(rng.Uint32() & 0x00ffffff)
		buf.Fill(r, c)
		if ref != nil {
			ref.Fill(r, c)
		}
	case 1:
		x, y := rng.Intn(w), rng.Intn(h)
		c := Color(rng.Uint32() & 0x00ffffff)
		buf.Set(x, y, c)
		if ref != nil {
			ref.Set(x, y, c)
		}
	case 2:
		r := randRectIn(rng, w, h)
		dy := rng.Intn(2*h+1) - h
		buf.ScrollVert(r, dy)
		if ref != nil {
			ref.ScrollVert(r, dy)
		}
	case 3:
		r := randRectIn(rng, w, h)
		buf.Blit(aux, r)
		if ref != nil {
			ref.Blit(aux, r)
		}
	case 4:
		buf.CopyFrom(aux)
		if ref != nil {
			ref.CopyFrom(aux)
		}
	}
}

// noisyBuffer builds a w × h buffer with deterministic pseudo-random
// pixels.
func noisyBuffer(rng *rand.Rand, w, h int) *Buffer {
	b := New(w, h)
	pix := b.Pix()
	for i := range pix {
		pix[i] = Color(rng.Uint32() & 0x00ffffff)
	}
	return b
}

// TestTileTrackedMutatorsMatchUntracked pins that enabling tile tracking
// never changes pixel semantics: the same mutation sequence applied to a
// tracked and an untracked buffer yields identical bytes and identical
// tile generations mark a superset of changed tiles.
func TestTileTrackedMutatorsMatchUntracked(t *testing.T) {
	for _, dims := range [][2]int{{64, 64}, {33, 47}} {
		w, h := dims[0], dims[1]
		rng := rand.New(rand.NewSource(int64(w + h)))
		tracked := noisyBuffer(rng, w, h)
		plain := New(w, h)
		plain.CopyFrom(tracked)
		tracked.EnableTiles()
		aux := noisyBuffer(rng, w, h)

		prev := New(w, h)
		for step := 0; step < 150; step++ {
			prev.CopyFrom(plain)
			sinceGen := tracked.Gen()
			mutate(rng, tracked, plain, aux)
			if !tracked.Equal(plain) {
				t.Fatalf("%dx%d step %d: tracked buffer diverged from untracked", w, h, step)
			}
			// Generation soundness: every tile holding a changed pixel
			// must be marked written after the mutation.
			for i := 0; i < tracked.Tiles(); i++ {
				if tracked.TileGen(i) > sinceGen {
					continue // marked dirty; nothing to prove
				}
				r := tracked.TileRect(i)
				for y := r.Y0; y < r.Y1; y++ {
					for x := r.X0; x < r.X1; x++ {
						if plain.At(x, y) != prev.At(x, y) {
							t.Fatalf("%dx%d step %d: tile %d changed at (%d,%d) but was not touched",
								w, h, step, i, x, y)
						}
					}
				}
			}
		}
	}
}

// TestTileTouchEdgeRects is the regression suite for the latent
// Fill/damage clamping edge: zero-area, inverted, and out-of-bounds
// rectangles — including negative coordinates, whose tile index would
// arithmetic-shift to -1 without clamping — must be handled by every
// mutator on buffers whose edge tiles are partial.
func TestTileTouchEdgeRects(t *testing.T) {
	edgeRects := []Rect{
		{},                     // zero value
		{5, 5, 5, 9},           // zero width
		{5, 5, 9, 5},           // zero height
		{10, 10, 3, 20},        // inverted x
		{10, 10, 20, 3},        // inverted y
		{-100, -100, -50, -50}, // fully negative
		{-10, -10, 5, 5},       // straddles origin
		{30, 40, 500, 600},     // exceeds bounds
		{-1000, 0, 1000, 1},    // thin row across, wide overshoot
		{0, -1000, 1, 1000},    // thin column across
		{32, 32, 64, 64},       // exactly tile-aligned
		{31, 31, 33, 33},       // straddles a tile corner
		{-2147483000, -2147483000, 2147483000, 2147483000}, // near-overflow
	}
	for _, dims := range [][2]int{{33, 47}, {64, 64}, {32, 32}, {1, 1}} {
		w, h := dims[0], dims[1]
		rng := rand.New(rand.NewSource(99))
		tracked := noisyBuffer(rng, w, h)
		plain := New(w, h)
		plain.CopyFrom(tracked)
		tracked.EnableTiles()
		src := noisyBuffer(rng, w, h)
		for _, r := range edgeRects {
			if got, want := tracked.Fill(r, Color(0x123456)), plain.Fill(r, Color(0x123456)); got != want {
				t.Fatalf("%dx%d Fill(%v): tracked count %d, plain %d", w, h, r, got, want)
			}
			if got, want := tracked.Blit(src, r), plain.Blit(src, r); got != want {
				t.Fatalf("%dx%d Blit(%v): tracked count %d, plain %d", w, h, r, got, want)
			}
			for _, dy := range []int{-1000, -3, 0, 3, 1000} {
				if got, want := tracked.ScrollVert(r, dy), plain.ScrollVert(r, dy); got != want {
					t.Fatalf("%dx%d ScrollVert(%v, %d): tracked rect %v, plain %v", w, h, r, dy, got, want)
				}
			}
			if !tracked.Equal(plain) {
				t.Fatalf("%dx%d after rect %v: tracked pixels diverge", w, h, r)
			}
		}
		// A palette destination must clamp the same rects identically,
		// whole tiles as planes and cut tiles as raw rows, from a raw
		// source and from a compressed one.
		pal := New(w, h)
		pal.EnableTiles()
		pal.CopyFrom(plain)
		for _, sb := range []*Buffer{src, narrowScreen(rng, w, h)} {
			for _, r := range edgeRects {
				want := plain.Blit(sb, r)
				if got := pal.Blit(sb, r); got != want {
					t.Fatalf("%dx%d palette Blit(%v): count %d, want %d", w, h, r, got, want)
				}
				if !pal.Equal(plain) {
					t.Fatalf("%dx%d palette Blit(%v): pixels diverge", w, h, r)
				}
			}
		}
	}
}

// narrowScreen builds a w × h palette buffer painted in four colors, so
// every tile stays compressed.
func narrowScreen(rng *rand.Rand, w, h int) *Buffer {
	b := New(w, h)
	b.EnableTiles()
	colors := [4]Color{0x102030, 0xc0c0c0, 0x20a040, 0xf01010}
	b.FillAll(colors[0])
	for n := 0; n < 12; n++ {
		b.Fill(randRectIn(rng, w, h), colors[rng.Intn(len(colors))])
	}
	return b
}

// mutateDamaged applies one random honest-client mutation to buf and
// returns a rectangle covering every pixel it may have changed — the
// damage a well-behaved surface.Client would report.
func mutateDamaged(rng *rand.Rand, buf, aux *Buffer) Rect {
	w, h := buf.Width(), buf.Height()
	switch rng.Intn(5) {
	case 0:
		r := randRectIn(rng, w, h)
		buf.Fill(r, Color(rng.Uint32()&0x00ffffff))
		return r.Clamp(buf.Bounds())
	case 1:
		x, y := rng.Intn(w), rng.Intn(h)
		buf.Set(x, y, Color(rng.Uint32()&0x00ffffff))
		return Rect{x, y, x + 1, y + 1}
	case 2:
		// ScrollVert returns the vacated repaint rect; the written rows
		// are the rest of r, so an honest client damages all of r.
		r := randRectIn(rng, w, h)
		buf.ScrollVert(r, rng.Intn(2*h+1)-h)
		return r.Clamp(buf.Bounds())
	case 3:
		r := randRectIn(rng, w, h)
		buf.Blit(aux, r)
		return r.Clamp(buf.Bounds())
	default:
		buf.CopyFrom(aux)
		return buf.Bounds()
	}
}

// union grows a into the bounding box of a and b (either may be empty).
func union(a, b Rect) Rect {
	if b.Empty() {
		return a
	}
	if a.Empty() {
		return b
	}
	if b.X0 < a.X0 {
		a.X0 = b.X0
	}
	if b.Y0 < a.Y0 {
		a.Y0 = b.Y0
	}
	if b.X1 > a.X1 {
		a.X1 = b.X1
	}
	if b.Y1 > a.Y1 {
		a.Y1 = b.Y1
	}
	return a
}

// TestBlitPaletteMatchesBlit drives randomized compose sequences through
// Blit on a palette destination and on a plain one side by side,
// modelled on how the surface compositor uses them: a full-bounds first
// compose, then reported damage covering every mutation since the
// previous compose, each blitted to the same place. Source and blit
// content come from compressed screens, so composes move index planes.
// Bytes and return values must never diverge — across plane copies of
// whole tiles, raw rows of cut tiles, over-reported damage, partial edge
// tiles and a larger destination.
func TestBlitPaletteMatchesBlit(t *testing.T) {
	cases := []struct {
		w, h   int
		dw, dh int
	}{
		{64, 64, 64, 64},   // same size
		{64, 64, 128, 160}, // source smaller than the destination
		{33, 47, 33, 47},   // partial edge tiles
		{96, 130, 96, 130}, // partial edge tiles
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.w ^ tc.h<<8 ^ tc.dw<<16)))
		src := narrowScreen(rng, tc.w, tc.h)
		aux := narrowScreen(rng, tc.w, tc.h)
		dstP := New(tc.dw, tc.dh)
		dstP.EnableTiles()
		dstN := New(tc.dw, tc.dh)

		planes := 0             // most destination tiles ever compressed at once
		pending := src.Bounds() // first compose latches the whole surface
		for step := 0; step < 150; step++ {
			damage := pending
			if rng.Intn(5) == 0 {
				damage = src.Bounds() // over-reported damage is contract-legal
			}
			got := dstP.Blit(src, damage)
			want := dstN.Blit(src, damage)
			if got != want {
				t.Fatalf("%+v step %d: palette Blit count %d, plain %d", tc, step, got, want)
			}
			if !dstP.Equal(dstN) {
				t.Fatalf("%+v step %d: palette Blit bytes diverge from plain Blit", tc, step)
			}
			planes = max(planes, dstP.PaletteTiles())

			// Paint damage for the next latch: usually some mutations,
			// sometimes none (a redundant latch re-submitting empty or
			// stale damage).
			pending = Rect{}
			for n := rng.Intn(4); n > 0; n-- {
				pending = union(pending, mutateDamaged(rng, src, aux))
			}
		}
		if planes == 0 {
			t.Fatalf("%+v: no destination tile was ever compressed", tc)
		}
	}
}

// TestShareFromCopyOnWrite covers the COW view lifecycle: reads alias the
// source, the first mutation materializes privately, and the source is
// never written through the view.
func TestShareFromCopyOnWrite(t *testing.T) {
	src := New(40, 40)
	src.FillAll(Color(0x336699))
	view := New(40, 40)
	view.EnableTiles()
	view.ShareFrom(src)
	if !view.Shared() {
		t.Fatal("view not marked shared")
	}
	if view.At(7, 9) != Color(0x336699) {
		t.Fatalf("shared read = %#x", view.At(7, 9))
	}
	view.Set(7, 9, Color(0x00ff00))
	if view.Shared() {
		t.Fatal("view still shared after write")
	}
	if src.At(7, 9) != Color(0x336699) {
		t.Fatal("write leaked through to the shared source")
	}
	if view.At(7, 9) != Color(0x00ff00) || view.At(0, 0) != Color(0x336699) {
		t.Fatal("materialized view content wrong")
	}
	// Pix() on a shared view must materialize (its slice is writable).
	view2 := New(40, 40)
	view2.ShareFrom(src)
	view2.Pix()[0] = Color(0x123)
	if src.At(0, 0) == Color(0x123) {
		t.Fatal("Pix() returned an alias of the shared source")
	}
	// Re-sharing parks storage again; a second ShareFrom retargets.
	view3 := New(40, 40)
	view3.ShareFrom(src)
	src2 := New(40, 40)
	src2.FillAll(Color(0x101010))
	view3.ShareFrom(src2)
	if view3.At(3, 3) != Color(0x101010) {
		t.Fatal("re-share did not retarget")
	}
	view3.FillAll(Color(0x99))
	if src2.At(3, 3) != Color(0x101010) {
		t.Fatal("materialization after re-share wrote the source")
	}
}

// TestTileLatticeDeltaMatchesFullScan is the meter-side differential
// property: DeltaCompare restricted to dirty tiles returns exactly the
// verdict and first-diff index of a full lattice scan, across arbitrary
// mutation histories, and leaves committed (in tile order, read through
// lat) equal to the current lattice values. Beside the mutators, a
// history holds full compares (sinceGen 0, the meter's buffer-switch
// path), copy-on-write views of palette snapshots moved by
// ShareFromDamage (the memo-hit frames of a feed), whole-tile solid
// fills (the palN == 1 runs), and writes to scattered lattice points,
// whose minimum index need not lie in the first dirty tile.
func TestTileLatticeDeltaMatchesFullScan(t *testing.T) {
	for _, dims := range [][2]int{{64, 64}, {96, 130}, {33, 47}} {
		w, h := dims[0], dims[1]
		g := GridForSamples(w, h, 256)
		tl := NewTileLattice(g)
		rng := rand.New(rand.NewSource(int64(w * h)))
		buf := noisyBuffer(rng, w, h)
		buf.EnableTiles()
		aux := noisyBuffer(rng, w, h)
		memos := snapshotScreens(rng, w, h, 4)

		full := make([]Color, g.Samples())
		prev := make([]Color, g.Samples())
		// The first compare starts from stale values, as a meter's
		// committed lattice does after a Reset.
		committed := make([]Color, g.Samples())
		for j := range committed {
			committed[j] = Color(rng.Uint32())
		}
		sinceGen := uint64(0)
		for step := 0; step < 200; step++ {
			if step > 0 {
				switch rng.Intn(9) {
				case 0: // observe an unchanged frame
				case 1: // full compare mid-history, sometimes after a write
					if rng.Intn(2) == 0 {
						mutate(rng, buf, nil, aux)
					}
					sinceGen = 0
				case 2: // move to a memo screen, damaging what differs
					memo := memos[rng.Intn(len(memos))]
					buf.ShareFromDamage(memo, diffTiles(buf, memo))
				case 3: // whole-tile solid fills, sometimes repeating a color
					tx0, ty0 := rng.Intn(tilesFor(w)), rng.Intn(tilesFor(h))
					r := Rect{tx0 << TileShift, ty0 << TileShift,
						(tx0 + rng.Intn(3) + 1) << TileShift, (ty0 + rng.Intn(3) + 1) << TileShift}
					c := buf.At(r.X0, r.Y0)
					if rng.Intn(2) == 0 {
						c = Color(rng.Uint32() & 0x00ffffff)
					}
					buf.Fill(r, c)
				case 4: // scattered lattice points: the minimum index may sit in a later tile
					for k := rng.Intn(4) + 2; k > 0; k-- {
						li := rng.Intn(g.Samples())
						buf.Set(g.xs[li%g.cols], g.ys[li/g.cols], Color(rng.Uint32()&0x00ffffff))
					}
				default:
					mutate(rng, buf, nil, aux)
				}
			}
			// Reference: full gather against committed, read in grid
			// order.
			for j, li := range tl.lat {
				prev[li] = committed[j]
			}
			g.Sample(buf, full)
			want := SamplesFirstDiff(full, prev)

			got := tl.DeltaCompare(buf, committed, sinceGen)
			if step > 0 && got != want {
				t.Fatalf("%dx%d step %d (since %d): DeltaCompare = %d, full scan = %d", w, h, step, sinceGen, got, want)
			}
			for j, li := range tl.lat {
				if committed[j] != full[li] {
					t.Fatalf("%dx%d step %d: committed stale at lattice index %d after DeltaCompare", w, h, step, li)
				}
			}
			sinceGen = buf.Gen()
		}
	}
}

// snapshotScreens returns n palette snapshots of w × h screens painted
// with random fills in five colors, so every tile compresses.
func snapshotScreens(rng *rand.Rand, w, h, n int) []*Buffer {
	colors := []Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240)}
	var out []*Buffer
	for len(out) < n {
		src := New(w, h)
		src.EnableTiles()
		for k := rng.Intn(12) + 1; k > 0; k-- {
			src.Fill(randRectIn(rng, w, h), colors[rng.Intn(len(colors))])
		}
		out = append(out, NewPaletteSnapshot(src))
	}
	return out
}

// diffTiles returns the rects of b's tiles whose content differs from
// src's: a damage report that honors ShareFromDamage's contract.
func diffTiles(b, src *Buffer) []Rect {
	var rects []Rect
	for ty := 0; ty < tilesFor(b.h); ty++ {
		for tx := 0; tx < tilesFor(b.w); tx++ {
			r := Rect{tx << TileShift, ty << TileShift, (tx + 1) << TileShift, (ty + 1) << TileShift}.Clamp(b.Bounds())
		scan:
			for y := r.Y0; y < r.Y1; y++ {
				for x := r.X0; x < r.X1; x++ {
					if b.At(x, y) != src.At(x, y) {
						rects = append(rects, r)
						break scan
					}
				}
			}
		}
	}
	return rects
}

// TestTileStateAllocFree pins the steady-state allocation contract of the
// tile layer: touch bookkeeping, palette blits (whole tiles and partial
// ones) and COW materialization allocate nothing once buffers exist.
func TestTileStateAllocFree(t *testing.T) {
	src := New(64, 64)
	src.EnableTiles()
	src.FillAll(Color(0x111111))
	dst := New(64, 64)
	dst.EnableTiles()
	memo := New(64, 64)
	memo.FillAll(Color(0x777777))
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		src.Fill(Rect{i % 30, i % 30, i%30 + 20, i%30 + 20}, Color(i))
		dst.Blit(src, src.Bounds())
		dst.Blit(src, Rect{0, 0, 40, 40})
		dst.ShareFrom(memo) // park + alias
		dst.Set(1, 1, Color(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("tile steady state allocates %.1f allocs/op, want 0", allocs)
	}
}
