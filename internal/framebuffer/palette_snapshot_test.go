package framebuffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// referencePaletteSnapshot is the original NewPaletteSnapshot encoder,
// kept as the oracle the production encoder must match byte for byte: it
// decodes every source row through readRow and assigns each pixel's index
// by a linear palette search plus a one-nibble read-modify-write.
func referencePaletteSnapshot(src *Buffer) *Buffer {
	b := &Buffer{w: src.w, h: src.h}
	b.EnableTiles()
	t := b.tiles
	rs := src.repr()
	var row [TileSize]Color
	for i := range t.palN {
		r := b.TileRect(i)
		pal := t.tilePal(i)
		plane := t.tilePlane(i)
		n := 0
		for y := r.Y0; y < r.Y1; y++ {
			rs.readRow(row[:r.Dx()], r.X0, y, r.Dx())
			np := (y&tileMask)<<TileShift + r.X0&tileMask
			for _, c := range row[:r.Dx()] {
				idx := -1
				for k := 0; k < n; k++ {
					if pal[k] == c {
						idx = k
						break
					}
				}
				if idx < 0 {
					if n == PaletteCap {
						return nil
					}
					pal[n] = c
					idx = n
					n++
				}
				sh := uint(np&1) * 4
				plane[np>>1] = plane[np>>1]&^(0xF<<sh) | byte(idx)<<sh
				np++
			}
		}
		t.palN[i] = uint8(n)
		t.palTiles++
	}
	return b
}

// snapshotDiff describes the first difference between a snapshot and the
// reference encoder's output — nil-ness, dimensions, palTiles, per tile
// palN, the 512-byte plane and all PaletteCap palette entries, and the
// slot layout, which must be the reference's compacted by referenceSlots
// — or "" when they agree.
func snapshotDiff(got, want *Buffer) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("nil-ness: got nil=%v, want nil=%v", got == nil, want == nil)
	}
	if got == nil {
		return ""
	}
	if got.w != want.w || got.h != want.h || (got.pix == nil) != (want.pix == nil) {
		return fmt.Sprintf("shape: got %dx%d compacted=%v, want %dx%d compacted=%v",
			got.w, got.h, got.pix == nil, want.w, want.h, want.pix == nil)
	}
	gt, wt := got.tiles, want.tiles
	if gt.palTiles != wt.palTiles {
		return fmt.Sprintf("palTiles: got %d, want %d", gt.palTiles, wt.palTiles)
	}
	for i := range wt.palN {
		if gt.palN[i] != wt.palN[i] {
			return fmt.Sprintf("tile %d palN: got %d, want %d", i, gt.palN[i], wt.palN[i])
		}
		if gp, wp := gt.tilePal(i), wt.tilePal(i); !slices.Equal(gp, wp) {
			return fmt.Sprintf("tile %d pal: got %x, want %x", i, gp, wp)
		}
		if gp, wp := gt.tilePlane(i), wt.tilePlane(i); !bytes.Equal(gp, wp) {
			k := 0
			for gp[k] == wp[k] {
				k++
			}
			return fmt.Sprintf("tile %d plane byte %d: got %02x, want %02x", i, k, gp[k], wp[k])
		}
	}
	slots, n := referenceSlots(want)
	if gt.slot == nil {
		return "slot table: got none"
	}
	for i, s := range slots {
		if gt.slot[i] != s {
			return fmt.Sprintf("tile %d slot: got %d, want %d", i, gt.slot[i], s)
		}
	}
	if len(gt.plane) != n*planeTileBytes || len(gt.pal) != n*PaletteCap {
		return fmt.Sprintf("storage: got %d plane bytes and %d palette entries, want %d slots",
			len(gt.plane), len(gt.pal), n)
	}
	return ""
}

// referenceSlots compacts a reference snapshot by NewPaletteSnapshot's
// rule: tile i shares tile i−1's slot exactly when both have the same size
// and equal palN, palette entries and plane. It returns the slot of each
// tile and the slot count.
func referenceSlots(ref *Buffer) ([]int32, int) {
	t := ref.tiles
	slots := make([]int32, len(t.palN))
	n := 1
	for i := 1; i < len(slots); i++ {
		r, p := ref.TileRect(i), ref.TileRect(i-1)
		if r.Dx() == p.Dx() && r.Dy() == p.Dy() && t.palN[i] == t.palN[i-1] &&
			slices.Equal(t.tilePal(i), t.tilePal(i-1)) && bytes.Equal(t.tilePlane(i), t.tilePlane(i-1)) {
			slots[i] = slots[i-1]
			continue
		}
		slots[i] = int32(n)
		n++
	}
	return slots, n
}

// checkSnapshotStream drives one random mutation stream over a w×h
// buffer and requires NewPaletteSnapshot to match the reference encoder,
// slot layout included, after every step. The buffer is tracked or plain
// as tracked says; the stream mixes narrow fills, wide fills that overflow
// tiles past PaletteCap (nil snapshots), single stores, scrolls,
// encodeAll, Recycle, ShareFrom/ShareFromDamage onto earlier snapshots —
// copy-on-write views of compacted sources with no pixel array — and
// full-width feed rows, whose tiles share slots. Each step must also
// leave the buffer's build stamps honest (stampDiff).
func checkSnapshotStream(t *testing.T, seed int64, ops []byte, w, h int, tracked bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	buf := New(w, h)
	if tracked {
		buf.EnableTiles()
	}
	narrow := [6]Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240), 0}
	randRect := func() Rect {
		return Rect{
			X0: rng.Intn(w+16) - 8, Y0: rng.Intn(h+16) - 8,
			X1: rng.Intn(w+16) - 8, Y1: rng.Intn(h+16) - 8,
		}
	}
	var snaps []*Buffer
	var rects []Rect
	var colors []Color
	for step, op := range ops {
		switch op % 9 {
		case 0, 1: // narrow fill
			buf.Fill(randRect(), narrow[rng.Intn(len(narrow))])
		case 2: // wide fills: tiles overflow PaletteCap and the snapshot is nil
			for n := rng.Intn(3) + 1; n > 0; n-- {
				r := randRect()
				if rng.Intn(2) == 0 {
					x, y := rng.Intn(w), rng.Intn(h)
					r = Rect{x, y, x + rng.Intn(3) + 1, y + rng.Intn(3) + 1}
				}
				buf.Fill(r, Color(rng.Uint32()&0x00ffffff))
			}
		case 3: // single stores, mostly narrow
			for n := rng.Intn(40) + 1; n > 0; n-- {
				c := narrow[rng.Intn(len(narrow))]
				if rng.Intn(4) == 0 {
					c = Color(rng.Uint32() & 0x00ffffff)
				}
				buf.Set(rng.Intn(w), rng.Intn(h), c)
			}
		case 4: // scroll
			buf.ScrollVert(randRect(), rng.Intn(2*h+1)-h)
		case 5:
			encodeAll(buf)
		case 6: // become a view of an earlier compacted snapshot
			if len(snaps) == 0 {
				break
			}
			src := snaps[rng.Intn(len(snaps))]
			if rng.Intn(2) == 0 {
				buf.ShareFrom(src)
			} else {
				buf.ShareFromDamage(src, []Rect{randRect()})
			}
		case 7:
			buf.Recycle()
		default: // full-width 5-px and 19-px bands from a tile-aligned or misaligned row
			y0 := rng.Intn(h)
			if rng.Intn(2) == 0 {
				y0 &^= tileMask
			}
			rects, colors = feedRows(w, h, y0, rng.Intn(len(narrow)), narrow[:], rects[:0], colors[:0])
			buf.FillRects(rects, colors)
		}
		if d := stampDiff(buf); d != "" {
			t.Fatalf("seed %d %dx%d tracked=%v step %d (op %d): %s", seed, w, h, tracked, step, op%9, d)
		}
		got, want := NewPaletteSnapshot(buf), referencePaletteSnapshot(buf)
		if d := snapshotDiff(got, want); d != "" {
			t.Fatalf("seed %d %dx%d tracked=%v step %d (op %d): %s", seed, w, h, tracked, step, op%9, d)
		}
		if got != nil && len(snaps) < 4 {
			snaps = append(snaps, got)
		}
	}
}

// TestPaletteSnapshotMatchesReference pins the snapshot encoder's
// byte-identity contract over random mutation streams: small buffers with
// partial and odd-width edge tiles in both axes, and full 720×1280
// screens, whose 16-px right edge tiles are the production shape.
func TestPaletteSnapshotMatchesReference(t *testing.T) {
	small, large := 400, 4
	if testing.Short() {
		small, large = 50, 1
	}
	for seed := int64(0); seed < int64(small); seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 24)
		rng.Read(ops)
		checkSnapshotStream(t, seed, ops, rng.Intn(100)+8, rng.Intn(113)+8, seed%4 != 3)
	}
	for seed := int64(0); seed < int64(large); seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 12)
		rng.Read(ops)
		checkSnapshotStream(t, seed, ops, 720, 1280, seed != 1)
	}
}

// TestPaletteSnapshotFeedScreen checks BenchmarkPaletteSnapshot's
// shapes directly: a scrolled feed screen (raw list tiles under a
// compressed header), the same screen after encodeAll, and a view of the
// first snapshot.
func TestPaletteSnapshotFeedScreen(t *testing.T) {
	buf := scrolledFeed()
	snap := NewPaletteSnapshot(buf)
	if d := snapshotDiff(snap, referencePaletteSnapshot(buf)); d != "" {
		t.Fatalf("raw list tiles: %s", d)
	}
	encodeAll(buf)
	if d := snapshotDiff(NewPaletteSnapshot(buf), referencePaletteSnapshot(buf)); d != "" {
		t.Fatalf("compressed source: %s", d)
	}
	view := New(720, 1280)
	view.EnableTiles()
	view.ShareFrom(snap)
	if d := snapshotDiff(NewPaletteSnapshot(view), referencePaletteSnapshot(view)); d != "" {
		t.Fatalf("view of a compacted snapshot: %s", d)
	}
}

// TestPaletteSnapshotSharing pins the slot layout on screens where alike
// tiles must share a slot and on near misses where they must not, on
// 112×96 screens (three full tiles and a 16-px edge tile per tile row)
// and 96×96 ones (no edge tile). Each screen is snapshotted tracked,
// plain where its paint does not depend on per-tile palettes, and as a
// view of its own snapshot; every snapshot must match the reference
// (snapshotDiff), and the listed tile pairs must share or not.
func TestPaletteSnapshotSharing(t *testing.T) {
	a, c := RGB(200, 30, 30), RGB(30, 30, 200)
	narrow := []Color{a, c, RGB(30, 200, 30), RGB(240, 240, 240)}
	// halves paints tile (tx, ty) x over y, the rest under, in the
	// order that leaves its palette [x, y] on a tracked buffer.
	halves := func(b *Buffer, tx, ty int, x, y Color) {
		r := R(tx*TileSize, ty*TileSize, (tx+1)*TileSize, (ty+1)*TileSize)
		b.Fill(r, x)
		b.Fill(R(r.X0, r.Y0+TileSize/2, r.X1, r.Y1), y)
	}
	for _, tc := range []struct {
		name         string
		w            int
		perTile      bool // paint depends on per-tile palettes: tracked only
		paint        func(b *Buffer)
		share, apart [][2]int
	}{
		{"5/19-px bands, tile-aligned", 112, false, func(b *Buffer) {
			rects, colors := feedRows(112, 96, 0, 0, narrow, nil, nil)
			b.FillRects(rects, colors)
		}, [][2]int{{0, 1}, {1, 2}, {5, 6}, {9, 10}}, [][2]int{{2, 3}, {3, 4}}},
		{"5/19-px bands, misaligned", 112, false, func(b *Buffer) {
			b.FillAll(narrow[3])
			rects, colors := feedRows(112, 96, 13, 1, narrow, nil, nil)
			b.FillRects(rects, colors)
		}, [][2]int{{0, 1}, {1, 2}, {4, 5}, {8, 10}}, [][2]int{{2, 3}, {7, 8}}},
		{"solid, 16-px edge tile in the same color", 112, false, func(b *Buffer) {
			b.FillAll(a)
		}, [][2]int{{0, 1}, {1, 2}}, [][2]int{{2, 3}, {3, 4}}},
		{"solid, no edge tile: rows share", 96, false, func(b *Buffer) {
			b.FillAll(a)
		}, [][2]int{{0, 1}, {2, 3}, {0, 8}}, nil},
		{"equal two apart, not adjacent", 112, false, func(b *Buffer) {
			b.FillAll(a)
			b.Fill(R(0, 5, 112, 9), c)
			b.Fill(R(32, 0, 64, 96), c)
		}, nil, [][2]int{{0, 1}, {1, 2}, {0, 2}}},
		{"same content, palettes in different orders", 112, true, func(b *Buffer) {
			for ty := 0; ty < 3; ty++ {
				halves(b, 0, ty, a, c)
				b.Fill(R(32, ty*TileSize, 64, (ty+1)*TileSize), c)
				b.Fill(R(32, ty*TileSize, 64, ty*TileSize+TileSize/2), a)
				halves(b, 2, ty, a, c)
			}
		}, [][2]int{{0, 1}, {1, 2}}, nil},
		{"same plane, palettes in different orders", 112, true, func(b *Buffer) {
			for ty := 0; ty < 3; ty++ {
				halves(b, 0, ty, a, c)
				halves(b, 1, ty, c, a)
			}
		}, nil, [][2]int{{0, 1}, {1, 2}}},
		{"same content, compressed next to raw", 112, true, func(b *Buffer) {
			halves(b, 0, 0, a, c)
			// A tracked buffer's tiles start raw, and partial fills
			// leave tile 1 so.
			b.Fill(R(32, 0, 64, 16), a)
			b.Fill(R(32, 16, 64, 32), c)
			halves(b, 2, 0, a, c)
		}, [][2]int{{0, 1}, {1, 2}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tracked := range []bool{true, false} {
				if tc.perTile && !tracked {
					continue
				}
				buf := New(tc.w, 96)
				if tracked {
					buf.EnableTiles()
				}
				tc.paint(buf)
				snap := NewPaletteSnapshot(buf)
				view := New(tc.w, 96)
				view.EnableTiles()
				view.ShareFrom(snap)
				for _, s := range []*Buffer{snap, NewPaletteSnapshot(view)} {
					if d := snapshotDiff(s, referencePaletteSnapshot(buf)); d != "" {
						t.Fatalf("tracked=%v: %s", tracked, d)
					}
					for _, p := range tc.share {
						if s.tiles.slot[p[0]] != s.tiles.slot[p[1]] {
							t.Errorf("tracked=%v: tiles %d and %d in slots %d and %d, want one", tracked, p[0], p[1], s.tiles.slot[p[0]], s.tiles.slot[p[1]])
						}
					}
					for _, p := range tc.apart {
						if s.tiles.slot[p[0]] == s.tiles.slot[p[1]] {
							t.Errorf("tracked=%v: tiles %d and %d share slot %d", tracked, p[0], p[1], s.tiles.slot[p[0]])
						}
					}
				}
			}
		})
	}
}

// TestPaletteSnapshotReadOnly checks that every mutator panics on a
// snapshot, whose alike tiles share storage, and leaves it unchanged.
func TestPaletteSnapshotReadOnly(t *testing.T) {
	src := New(100, 70)
	src.EnableTiles()
	rects, colors := feedRows(100, 70, 3, 0, []Color{RGB(1, 2, 3), RGB(4, 5, 6)}, nil, nil)
	src.FillRects(rects, colors)
	other := NewPaletteSnapshot(src)
	for _, m := range []struct {
		name string
		f    func(b *Buffer)
	}{
		{"Set", func(b *Buffer) { b.Set(1, 1, White) }},
		{"Fill", func(b *Buffer) { b.Fill(R(0, 0, 9, 9), White) }},
		{"FillAll", func(b *Buffer) { b.FillAll(White) }},
		{"FillRects", func(b *Buffer) { b.FillRects([]Rect{R(0, 0, 9, 9)}, []Color{White}) }},
		{"CopyFrom", func(b *Buffer) { b.CopyFrom(src) }},
		{"Blit", func(b *Buffer) { b.Blit(src, src.Bounds()) }},
		{"ScrollVert", func(b *Buffer) { b.ScrollVert(b.Bounds(), 5) }},
		{"Recycle", (*Buffer).Recycle},
		{"ShareFrom", func(b *Buffer) { b.ShareFrom(other) }},
		{"ShareFromDamage", func(b *Buffer) { b.ShareFromDamage(other, []Rect{R(0, 0, 9, 9)}) }},
		{"Pix", func(b *Buffer) { b.Pix() }},
		{"DisableTiles", (*Buffer).DisableTiles},
	} {
		t.Run(m.name, func(t *testing.T) {
			snap := NewPaletteSnapshot(src)
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a snapshot did not panic", m.name)
				}
				if d := snapshotDiff(snap, referencePaletteSnapshot(src)); d != "" {
					t.Errorf("%s changed the snapshot: %s", m.name, d)
				}
			}()
			m.f(snap)
		})
	}
}

// TestPaletteSnapshotConcurrent snapshots screens from several goroutines
// at once, as fleet workers fill the app state memo, while others read
// one shared snapshot through views: each snapshot must still match the
// reference (the pooled scratch is per call), and the shared one must
// read back its source.
func TestPaletteSnapshotConcurrent(t *testing.T) {
	narrow := []Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(240, 240, 240)}
	screens := make([]*Buffer, 4)
	for k := range screens {
		screens[k] = New(200, 150)
		screens[k].EnableTiles()
		rects, colors := feedRows(200, 150, 7*k, k, narrow, nil, nil)
		screens[k].FillRects(rects, colors)
	}
	shared := NewPaletteSnapshot(screens[0])
	var wg sync.WaitGroup
	for k := range screens {
		wg.Add(2)
		go func(src *Buffer) {
			defer wg.Done()
			want := referencePaletteSnapshot(src)
			for n := 0; n < 20; n++ {
				if d := snapshotDiff(NewPaletteSnapshot(src), want); d != "" {
					t.Error(d)
					return
				}
			}
		}(screens[k])
		go func() {
			defer wg.Done()
			view := New(200, 150)
			view.EnableTiles()
			view.ShareFrom(shared)
			if !view.Equal(screens[0]) {
				t.Error("a view of the shared snapshot differs from its source")
			}
			view.Fill(R(0, 0, 9, 9), White) // copies the tiles out
		}()
	}
	wg.Wait()
}

// TestPaletteSnapshotOverflow covers each place a raw source row can
// bring a tile its 17th color — a one-color row, a pixel pair, and the
// lone last pixel of an odd-width row — where both encoders must give up.
func TestPaletteSnapshotOverflow(t *testing.T) {
	colors := func(k int) Color { return RGB(uint8(k*13), uint8(k*29), uint8(k*47)) }
	for _, tc := range []struct {
		name  string
		w, h  int
		paint func(b *Buffer)
	}{
		{"one-color rows", 40, 40, func(b *Buffer) {
			for y := 0; y < 17; y++ {
				b.Fill(R(0, y, 40, y+1), colors(y))
			}
		}},
		{"pixel pair", 40, 40, func(b *Buffer) {
			for x := 0; x < 17; x++ {
				b.Fill(R(x, 3, x+1, 4), colors(x))
			}
		}},
		{"odd-width row tail", 17, 9, func(b *Buffer) {
			for x := 0; x < 17; x++ {
				b.Fill(R(x, 5, x+1, 6), colors(x))
			}
		}},
	} {
		for _, tracked := range []bool{false, true} {
			buf := New(tc.w, tc.h)
			if tracked {
				buf.EnableTiles()
			}
			tc.paint(buf)
			got, want := NewPaletteSnapshot(buf), referencePaletteSnapshot(buf)
			if want != nil {
				t.Fatalf("%s: the reference encoded 17 colors", tc.name)
			}
			if d := snapshotDiff(got, want); d != "" {
				t.Errorf("%s (tracked=%v): %s", tc.name, tracked, d)
			}
		}
	}
}

// FuzzPaletteSnapshot is TestPaletteSnapshotMatchesReference's check
// under the fuzzer: any mutation stream at any small size must snapshot
// to the reference encoder's bytes.
func FuzzPaletteSnapshot(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 5, 6, 4, 6}, uint8(64), uint8(64), true)
	f.Add(int64(2), []byte{2, 2, 0, 5, 6, 3, 7}, uint8(33), uint8(47), true)
	f.Add(int64(3), []byte{0, 4, 5, 0, 6, 7, 0, 6, 4}, uint8(95), uint8(40), false)
	f.Add(int64(4), []byte{3, 3, 5, 6, 1, 6, 4, 5}, uint8(16), uint8(15), true)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8, tracked bool) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		checkSnapshotStream(t, seed, ops, int(w8%100)+8, int(h8%113)+8, tracked)
	})
}

// encodeAll palette-compresses every raw tile of b whose content fits
// PaletteCap colors; the others stay raw.
func encodeAll(b *Buffer) {
	b.own()
	t := b.tiles
	if t == nil {
		return
	}
	for i := range t.palN {
		if t.palN[i] > 0 {
			continue
		}
		plane := t.tilePlane(i)
		clear(plane) // encodeRows writes into a zeroed plane
		p := snapPal{pal: t.tilePal(i)}
		if p.encodeRows(plane, b.pix, b.w, b.TileRect(i)) {
			t.palN[i] = uint8(p.n)
			t.palTiles++
			t.rebuilt(i)
		}
	}
}
