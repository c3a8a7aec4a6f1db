package framebuffer

import (
	"fmt"
	"math"
)

// Grid is the paper's grid-based comparison lattice: the screen is divided
// into cols × rows cells and the RGB value of each cell is represented by
// its center pixel. Comparing only the sampled lattice instead of every
// pixel makes content-rate metering nearly free (paper §3.1, Figure 4).
type Grid struct {
	w, h       int // screen dimensions
	cols, rows int // lattice dimensions
	xs, ys     []int
	// flat holds the precomputed row-major pixel index (y*w + x) of every
	// lattice point, so sampling is a single gather loop with no per-row
	// arithmetic. int32 keeps the table at 4 bytes per sample (the largest
	// supported screen, 921600 pixels, fits comfortably).
	flat []int32
	// tileOf and nibPos locate each lattice point in the tile layer:
	// tileOf[i] is the 32×32 tile index and nibPos[i] the tile-local
	// nibble offset, so sampling reads palette-compressed tiles without
	// decoding them (see palette.go), and NewTileLattice orders the
	// points by tile.
	tileOf []int32
	nibPos []int32
}

// NewGrid constructs a cols × rows sampling lattice over a w × h screen.
// All arguments must be positive and the lattice must not exceed the screen.
func NewGrid(w, h, cols, rows int) Grid {
	if w <= 0 || h <= 0 || cols <= 0 || rows <= 0 || cols > w || rows > h {
		panic(fmt.Sprintf("framebuffer: invalid grid %dx%d over %dx%d", cols, rows, w, h))
	}
	g := Grid{w: w, h: h, cols: cols, rows: rows}
	g.xs = centers(w, cols)
	g.ys = centers(h, rows)
	g.flat = make([]int32, 0, cols*rows)
	g.tileOf = make([]int32, 0, cols*rows)
	g.nibPos = make([]int32, 0, cols*rows)
	tcols := tilesFor(w)
	for _, y := range g.ys {
		base := int32(y * w)
		for _, x := range g.xs {
			g.flat = append(g.flat, base+int32(x))
			g.tileOf = append(g.tileOf, int32((y>>TileShift)*tcols+x>>TileShift))
			g.nibPos = append(g.nibPos, int32((y&tileMask)<<TileShift+x&tileMask))
		}
	}
	return g
}

// centers returns the center coordinate of each of n equal cells spanning
// [0, extent).
func centers(extent, n int) []int {
	cs := make([]int, n)
	for i := range cs {
		// Cell i spans [i*extent/n, (i+1)*extent/n); take its midpoint.
		cs[i] = (2*i*extent + extent) / (2 * n)
	}
	return cs
}

// GridForSamples builds a lattice with approximately n sample points over a
// w × h screen, preserving the screen aspect ratio, mirroring the paper's
// experimental grids for the 720×1280 Galaxy S3 panel:
//
//	2K → 36×64, 4K → 48×85(≈90), 9K → 72×128, 36K → 144×256, 921K → 720×1280.
func GridForSamples(w, h, n int) Grid {
	if n >= w*h {
		return NewGrid(w, h, w, h)
	}
	// cols/rows ≈ w/h and cols*rows ≈ n  ⇒  cols = sqrt(n·w/h).
	cols := int(math.Round(math.Sqrt(float64(n) * float64(w) / float64(h))))
	if cols > n {
		// On a screen more than n times wider than tall the aspect rule
		// asks for more columns than samples, overshooting n.
		cols = n
	}
	if cols < 1 {
		cols = 1
	}
	if cols > w {
		cols = w
	}
	rows := (n + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	if rows > h {
		rows = h
	}
	return NewGrid(w, h, cols, rows)
}

// Samples returns the number of lattice points.
func (g Grid) Samples() int { return g.cols * g.rows }

// Dims returns the lattice dimensions (cols, rows).
func (g Grid) Dims() (cols, rows int) { return g.cols, g.rows }

// ScreenDims returns the screen dimensions the lattice was built for.
func (g Grid) ScreenDims() (w, h int) { return g.w, g.h }

// Sample reads the lattice pixels of buf into dst, which must have length
// Samples(). buf must match the grid's screen dimensions.
func (g Grid) Sample(buf *Buffer, dst []Color) {
	if buf.Width() != g.w || buf.Height() != g.h {
		panic(fmt.Sprintf("framebuffer: Sample on %dx%d buffer with %dx%d grid screen",
			buf.Width(), buf.Height(), g.w, g.h))
	}
	if len(dst) != g.Samples() {
		panic(fmt.Sprintf("framebuffer: Sample dst length %d, want %d", len(dst), g.Samples()))
	}
	// Read the representation directly (not Pix()): sampling must never
	// materialize a copy-on-write buffer nor realize a compressed tile.
	rb := buf.repr()
	if rb.tiles != nil && rb.tiles.palTiles > 0 {
		g.samplePal(rb, dst[:g.Samples()])
		return
	}
	pix := rb.pix
	idx := g.flat
	dst = dst[:len(idx)]
	// Gather four lattice points per iteration: the unroll amortizes loop
	// and bounds-check overhead over the memory loads that dominate.
	i := 0
	for ; i+4 <= len(idx); i += 4 {
		q := idx[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] = pix[q[0]]
		d[1] = pix[q[1]]
		d[2] = pix[q[2]]
		d[3] = pix[q[3]]
	}
	for ; i < len(idx); i++ {
		dst[i] = pix[idx[i]]
	}
}

// samplePal gathers the lattice from a representation buffer holding at
// least one palette-compressed tile: raw lattice points read the pixel
// array as usual, compressed points decode a single nibble through the
// tile palette — no per-sample decode buffer, no materialization.
func (g Grid) samplePal(rb *Buffer, dst []Color) {
	t := rb.tiles
	pix := rb.pix
	for i, fi := range g.flat {
		ti := int(g.tileOf[i])
		if t.palN[ti] == 0 {
			dst[i] = pix[fi]
			continue
		}
		np, s := int(g.nibPos[i]), t.slotOf(ti)
		nib := t.plane[s*planeTileBytes+np>>1] >> (uint(np&1) * 4)
		dst[i] = t.pal[s*PaletteCap+int(nib&0xF)]
	}
}

// SamplesFirstDiff returns the index of the first differing sample, or -1
// when the lattices are identical. The early-exit meter uses the index to
// account only the comparison work actually performed.
//
// The scan XOR-folds blocks of eight samples so the all-equal sweep — the
// full-cost path that declares a frame redundant — takes one branch per
// block; on a mismatch the block is rescanned to report the exact first
// index, so the result is identical to the naive element-wise scan
// (samplesFirstDiffRef, which the fuzz harness cross-checks).
func SamplesFirstDiff(a, b []Color) int {
	if len(a) != len(b) {
		panic("framebuffer: SamplesFirstDiff length mismatch")
	}
	return firstDiff(a, b)
}

// firstDiff is the shared block-compare kernel behind SamplesFirstDiff
// and Buffer.Equal. Slices must have equal length.
func firstDiff(a, b []Color) int {
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := a[i : i+8 : i+8]
		y := b[i : i+8 : i+8]
		d := (x[0] ^ y[0]) | (x[1] ^ y[1]) | (x[2] ^ y[2]) | (x[3] ^ y[3]) |
			(x[4] ^ y[4]) | (x[5] ^ y[5]) | (x[6] ^ y[6]) | (x[7] ^ y[7])
		if d != 0 {
			break
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// samplesFirstDiffRef is the naive reference comparator kept for
// differential testing (fuzz and property tests) of the block-compare
// kernel above. It must never be used on a hot path.
func samplesFirstDiffRef(a, b []Color) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// DoubleBuffer implements the paper's double-buffering technique for the
// meter: two sampled-lattice buffers are alternated so that the previous
// frame's samples remain available while the current frame is sampled,
// avoiding a copy on every frame (paper §3.1, "Double Buffering").
type DoubleBuffer struct {
	front, back []Color
	primed      bool
}

// NewDoubleBuffer allocates both lattice buffers for n samples.
func NewDoubleBuffer(n int) *DoubleBuffer {
	return &DoubleBuffer{front: make([]Color, n), back: make([]Color, n)}
}

// Front returns the buffer to sample the current frame into.
func (d *DoubleBuffer) Front() []Color { return d.front }

// Back returns the previous frame's samples. Valid only once Primed.
func (d *DoubleBuffer) Back() []Color { return d.back }

// Primed reports whether at least one frame has been committed, i.e.
// whether Back holds valid previous-frame samples.
func (d *DoubleBuffer) Primed() bool { return d.primed }

// Commit makes the current front buffer the new back buffer (the "previous
// frame") and recycles the old back buffer as the next front.
func (d *DoubleBuffer) Commit() {
	d.front, d.back = d.back, d.front
	d.primed = true
}

// Reset discards the comparison history so the next committed frame primes
// the buffer afresh. The lattices are deliberately not cleared: Front is
// fully overwritten by Grid.Sample before any comparison, and Back is only
// read once a post-Reset Commit has primed it — so stale contents are
// unreachable and a reset buffer behaves exactly like a new one, without
// the memclr.
func (d *DoubleBuffer) Reset() { d.primed = false }
