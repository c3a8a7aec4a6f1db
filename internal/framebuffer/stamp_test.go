package framebuffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stampDiff returns "" when every two compressed tiles of b's own tile
// set that share a build stamp are stored alike by the byte compare (the
// same palette size, palette entries in use and index plane), and
// otherwise names the first pair that is not: a kernel wrote a tile's
// bytes and kept a stale stamp, so alike's fast path would answer wrong.
// A plain buffer and a snapshot carry no stamps.
func stampDiff(b *Buffer) string {
	t := b.tiles
	if t == nil || t.stamp == nil {
		return ""
	}
	first := make(map[uint64]int)
	for i, n := range t.palN {
		if n == 0 {
			continue
		}
		j, seen := first[t.stamp[i]]
		if !seen {
			first[t.stamp[i]] = i
			continue
		}
		if n != t.palN[j] || !slices.Equal(t.tilePal(i)[:n], t.tilePal(j)[:n]) || !bytes.Equal(t.tilePlane(i), t.tilePlane(j)) {
			return fmt.Sprintf("tiles %d and %d share build stamp %d but are stored unlike", j, i, t.stamp[i])
		}
	}
	return ""
}

// checkStamps fails t at step when any of bufs breaks the build-stamp
// invariant (stampDiff).
func checkStamps(t *testing.T, step int, bufs ...*Buffer) {
	t.Helper()
	for k, b := range bufs {
		if d := stampDiff(b); d != "" {
			t.Fatalf("step %d, buffer %d: %s", step, k, d)
		}
	}
}

// TestBuildStampsProveAlike holds every writer of tile bytes to the
// build-stamp invariant alike's fast path rests on: after each op of a
// random stream over every mutator — fills, single stores, FillRects
// batches with rows copied from the left and from above, scrolls that copy
// left neighbours, blits from live buffers, snapshots and the buffer
// itself, CopyFrom, a write through a view of a snapshot, Recycle and
// encodeAll — two compressed tiles sharing a stamp must be stored alike.
func TestBuildStampsProveAlike(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	narrow := []Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240)}
	var rects []Rect
	var colors []Color
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		w, h := rng.Intn(150)+8, rng.Intn(200)+8
		steps := 30
		if seed%20 == 0 {
			w, h, steps = 720, 1280, 12
		}
		b := New(w, h)
		b.EnableTiles()
		live := narrowScreen(rng, w, h)
		snap := NewPaletteSnapshot(live)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(13); op {
			case 0:
				b.Fill(randRectIn(rng, w, h), narrow[rng.Intn(len(narrow))])
			case 1:
				b.Fill(randRectIn(rng, w, h), Color(rng.Uint32()&0x00ffffff))
			case 2:
				for n := rng.Intn(20) + 1; n > 0; n-- {
					b.Set(rng.Intn(w), rng.Intn(h), narrow[rng.Intn(len(narrow))])
				}
			case 3:
				rects, colors = randFillBatch(rng, w, h, narrow, rects[:0], colors[:0])
				b.FillRects(rects, colors)
			case 4:
				rects, colors = feedRows(w, h, rng.Intn(h), rng.Intn(len(narrow)), narrow, rects[:0], colors[:0])
				b.FillRects(rects, colors)
			case 5: // vertical bands, whose tile rows repeat the row above
				rects, colors = rects[:0], colors[:0]
				y0 := rng.Intn(h) &^ tileMask
				for x, bw := rng.Intn(TileSize), rng.Intn(60)+2; x < w; x += bw {
					rects = append(rects, R(x, y0, x+bw, h))
					colors = append(colors, narrow[rng.Intn(len(narrow))])
				}
				b.FillRects(rects, colors)
			case 6: // a list scroll, whose tiles copy their left neighbours
				dy := rng.Intn(48) + 1
				if rng.Intn(2) == 0 {
					dy = -dy
				}
				b.ScrollVert(R(0, h/8, w, h), dy)
			case 7:
				b.ScrollVert(randRectIn(rng, w, h), rng.Intn(2*h+1)-h)
			case 8:
				src := live
				switch rng.Intn(3) {
				case 1:
					src = snap
				case 2:
					src = b
				}
				b.Blit(src, randRectIn(rng, w, h))
			case 9:
				if rng.Intn(2) == 0 {
					b.CopyFrom(live)
				} else {
					b.CopyFrom(snap)
				}
			case 10: // materialize a view of a snapshot: stamps from its slots
				b.ShareFrom(snap)
				b.Set(rng.Intn(w), rng.Intn(h), narrow[rng.Intn(len(narrow))])
			case 11:
				b.Recycle()
			default:
				encodeAll(b)
			}
			if d := stampDiff(b); d != "" {
				t.Fatalf("seed %d %dx%d step %d: %s", seed, w, h, step, d)
			}
		}
	}
}

// TestBuildStampsShareCopies pins where the stamps save byte compares,
// which output comparisons cannot see: Recycle leaves every tile on one
// stamp, and a 720×1280 feed step leaves the 22 full tiles of each list
// tile row on the stamp of the first, whose rebuilt tile the other 21
// copy. It also checks that stampDiff catches a tile written without a
// fresh stamp.
func TestBuildStampsShareCopies(t *testing.T) {
	buf := New(720, 1280)
	buf.EnableTiles()
	buf.Recycle()
	ts := buf.tiles
	for i := range ts.stamp {
		if ts.stamp[i] != ts.stamp[0] {
			t.Fatalf("after Recycle tile %d has stamp %d, tile 0 %d", i, ts.stamp[i], ts.stamp[0])
		}
	}
	feedPaint(buf)
	feedStep(buf, 1, nil, nil)
	checkStamps(t, 0, buf)
	for ty := 1; ty < ts.rows-1; ty++ {
		row := ts.stamp[ty*ts.cols : (ty+1)*ts.cols]
		for tx := 1; tx < 22; tx++ {
			if row[tx] != row[0] {
				t.Fatalf("list tile row %d: tile %d has stamp %d, the row's first %d", ty, tx, row[tx], row[0])
			}
		}
	}
	// A kernel that wrote tile 1's plane and kept its stamp.
	ts.tilePlane(3*ts.cols + 1)[0] ^= 0x10
	if stampDiff(buf) == "" {
		t.Fatal("stampDiff missed a tile written under a stale stamp")
	}
}
