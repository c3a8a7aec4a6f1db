package framebuffer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridForSamplesPaperSizes(t *testing.T) {
	// The paper's Figure 6 grids for the Galaxy S3's 720×1280 panel.
	cases := []struct {
		n          int
		cols, rows int
	}{
		{2304, 36, 64},      // "2K (36x64)"
		{921600, 720, 1280}, // "921K (720x1280)" — full resolution
	}
	for _, c := range cases {
		g := GridForSamples(720, 1280, c.n)
		cols, rows := g.Dims()
		if cols != c.cols || rows != c.rows {
			t.Errorf("GridForSamples(%d) = %dx%d, want %dx%d", c.n, cols, rows, c.cols, c.rows)
		}
	}
	// 9K (72×128) and 36K (144×256) follow the aspect-preserving rule.
	g := GridForSamples(720, 1280, 9216)
	if cols, rows := g.Dims(); cols != 72 || rows != 128 {
		t.Errorf("9K grid = %dx%d, want 72x128", cols, rows)
	}
	g = GridForSamples(720, 1280, 36864)
	if cols, rows := g.Dims(); cols != 144 || rows != 256 {
		t.Errorf("36K grid = %dx%d, want 144x256", cols, rows)
	}
}

func TestGridSampleReadsCenters(t *testing.T) {
	// 2x2 grid on a 4x4 screen: cell centers at (1,1),(3,1),(1,3),(3,3).
	b := New(4, 4)
	b.Set(1, 1, RGB(1, 0, 0))
	b.Set(3, 1, RGB(2, 0, 0))
	b.Set(1, 3, RGB(3, 0, 0))
	b.Set(3, 3, RGB(4, 0, 0))
	g := NewGrid(4, 4, 2, 2)
	got := make([]Color, 4)
	g.Sample(b, got)
	want := []Color{RGB(1, 0, 0), RGB(2, 0, 0), RGB(3, 0, 0), RGB(4, 0, 0)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGridFullResolutionIsIdentity(t *testing.T) {
	b := New(6, 5)
	for i := range b.Pix() {
		b.Pix()[i] = Color(i)
	}
	g := NewGrid(6, 5, 6, 5)
	got := make([]Color, g.Samples())
	g.Sample(b, got)
	for i := range got {
		if got[i] != Color(i) {
			t.Fatalf("full-res grid sample %d = %v, want %v", i, got[i], Color(i))
		}
	}
}

// samplesDiffer reports whether two sampled lattices differ anywhere. Both
// slices must have equal length.
func samplesDiffer(a, b []Color) bool {
	return SamplesFirstDiff(a, b) >= 0
}

func TestSamplesDiffer(t *testing.T) {
	a := []Color{1, 2, 3}
	b := []Color{1, 2, 3}
	if samplesDiffer(a, b) {
		t.Error("identical samples reported different")
	}
	b[2] = 9
	if !samplesDiffer(a, b) {
		t.Error("different samples reported identical")
	}
}

func TestDoubleBuffer(t *testing.T) {
	d := NewDoubleBuffer(3)
	if d.Primed() {
		t.Error("fresh double buffer is primed")
	}
	copy(d.Front(), []Color{1, 2, 3})
	d.Commit()
	if !d.Primed() {
		t.Error("not primed after commit")
	}
	if d.Back()[0] != 1 || d.Back()[2] != 3 {
		t.Error("Back does not hold committed samples")
	}
	copy(d.Front(), []Color{4, 5, 6})
	if d.Back()[0] != 1 {
		t.Error("writing Front disturbed Back")
	}
	d.Commit()
	if d.Back()[0] != 4 {
		t.Error("second commit did not rotate buffers")
	}
}

// Property: a change to any single pixel that happens to be a lattice
// center is always detected; the full-resolution lattice detects every
// change.
func TestGridDetectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := GridForSamples(72, 128, 1000)
	b := New(72, 128)
	prev := make([]Color, g.Samples())
	cur := make([]Color, g.Samples())
	g.Sample(b, prev)
	for iter := 0; iter < 200; iter++ {
		x, y := rng.Intn(72), rng.Intn(128)
		old := b.At(x, y)
		b.Set(x, y, old+1)
		g.Sample(b, cur)
		onLattice := false
		for _, gy := range g.ys {
			if gy != y {
				continue
			}
			for _, gx := range g.xs {
				if gx == x {
					onLattice = true
				}
			}
		}
		if got := samplesDiffer(prev, cur); got != onLattice {
			t.Fatalf("pixel (%d,%d): detected=%v onLattice=%v", x, y, got, onLattice)
		}
		b.Set(x, y, old)
	}
}

// Property: GridForSamples yields a lattice whose sample count is within a
// factor of 2 of the request and never exceeds the screen, for any screen.
func TestGridForSamplesBoundsProperty(t *testing.T) {
	bounded := func(w, h, n int) bool {
		g := GridForSamples(w, h, n)
		cols, rows := g.Dims()
		if cols > w || rows > h || cols < 1 || rows < 1 {
			return false
		}
		s := g.Samples()
		if n >= w*h {
			return s == w*h
		}
		return s >= n/2 && s <= 3*n || s == w*h
	}
	// Fixed cases the random search found: a screen far wider than
	// tall once got more columns than requested samples.
	for _, c := range []struct{ w, h, n int }{{668, 27, 2}} {
		if !bounded(c.w, c.h, c.n) {
			cols, rows := GridForSamples(c.w, c.h, c.n).Dims()
			t.Errorf("GridForSamples(%d, %d, %d) = %d×%d", c.w, c.h, c.n, cols, rows)
		}
	}
	f := func(wRaw, hRaw uint16, nRaw uint32) bool {
		w := int(wRaw%1000) + 8
		h := int(hRaw%2000) + 8
		return bounded(w, h, int(nRaw%uint32(w*h))+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGridSample9K(b *testing.B) {
	buf := New(720, 1280)
	g := GridForSamples(720, 1280, 9216)
	dst := make([]Color, g.Samples())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Sample(buf, dst)
	}
}
