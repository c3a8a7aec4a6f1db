package framebuffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// snapshotDiff describes the first difference between two snapshots'
// stored bytes — nil-ness, dimensions, compaction, palTiles, and per tile
// palN, the 512-byte plane and all PaletteCap palette entries — or ""
// when they are byte-identical.
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
	return ""
}

// checkSnapshotStream drives one random mutation stream over a w×h
// buffer and requires NewPaletteSnapshot to match the reference encoder
// after every step. The buffer is tracked or plain as tracked says; the
// stream mixes narrow fills, wide fills that overflow tiles past
// PaletteCap (nil snapshots), single stores, scrolls, EncodeAll, Recycle,
// and ShareFrom/ShareFromDamage onto earlier snapshots — copy-on-write
// views of compacted sources with no pixel array.
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
	for step, op := range ops {
		switch op % 8 {
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
			buf.EncodeAll()
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
		default:
			buf.Recycle()
		}
		got, want := NewPaletteSnapshot(buf), referencePaletteSnapshot(buf)
		if d := snapshotDiff(got, want); d != "" {
			t.Fatalf("seed %d %dx%d tracked=%v step %d (op %d): %s", seed, w, h, tracked, step, op%8, d)
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
// compressed header), the same screen after EncodeAll, and a view of the
// first snapshot.
func TestPaletteSnapshotFeedScreen(t *testing.T) {
	buf := scrolledFeed()
	snap := NewPaletteSnapshot(buf)
	if d := snapshotDiff(snap, referencePaletteSnapshot(buf)); d != "" {
		t.Fatalf("raw list tiles: %s", d)
	}
	buf.EncodeAll()
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
