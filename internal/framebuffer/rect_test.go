package framebuffer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := R(1, 2, 5, 10)
	if r.Dx() != 4 || r.Dy() != 8 || r.Area() != 32 {
		t.Errorf("Dx/Dy/Area = %d/%d/%d, want 4/8/32", r.Dx(), r.Dy(), r.Area())
	}
	if r.Empty() {
		t.Error("non-empty rect reported Empty")
	}
	if !R(3, 3, 3, 9).Empty() || !R(5, 5, 2, 9).Empty() {
		t.Error("degenerate rects not Empty")
	}
	if R(0, 0, 0, 0).Area() != 0 {
		t.Error("empty rect has non-zero area")
	}
	if got := r.String(); got != "(1,2)-(5,10)" {
		t.Errorf("String() = %q", got)
	}
}

func TestRectContains(t *testing.T) {
	r := R(1, 1, 4, 4)
	cases := []struct {
		x, y int
		want bool
	}{
		{1, 1, true}, {3, 3, true}, {4, 4, false}, {0, 2, false}, {2, 4, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.x, c.y); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	if got := a.Intersect(b); got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); got != R(0, 0, 15, 15) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(R(20, 20, 30, 30)); !got.Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", got)
	}
	if got := (Rect{}).Union(a); got != a {
		t.Errorf("empty Union identity = %v", got)
	}
	if got := a.Union(Rect{}); got != a {
		t.Errorf("Union with empty = %v", got)
	}
}

func TestRectOverlaps(t *testing.T) {
	if !R(0, 0, 5, 5).Overlaps(R(4, 4, 8, 8)) {
		t.Error("touching-interior rects should overlap")
	}
	if R(0, 0, 5, 5).Overlaps(R(5, 0, 8, 5)) {
		t.Error("edge-adjacent rects should not overlap (half-open)")
	}
}

func randRect(rng *rand.Rand) Rect {
	x0, y0 := rng.Intn(50), rng.Intn(50)
	return R(x0, y0, x0+rng.Intn(30), y0+rng.Intn(30))
}

// Property: intersection is contained in both operands; union contains both.
func TestRectAlgebraProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	contains := func(outer, inner Rect) bool {
		if inner.Empty() {
			return true
		}
		return outer.X0 <= inner.X0 && outer.Y0 <= inner.Y0 &&
			outer.X1 >= inner.X1 && outer.Y1 >= inner.Y1
	}
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		in := a.Intersect(b)
		un := a.Union(b)
		if !contains(a, in) || !contains(b, in) {
			t.Fatalf("intersect %v of %v,%v not contained", in, a, b)
		}
		if !a.Empty() && !contains(un, a) || !b.Empty() && !contains(un, b) {
			t.Fatalf("union %v of %v,%v does not contain operands", un, a, b)
		}
		if in != b.Intersect(a) {
			t.Fatalf("intersect not commutative for %v,%v", a, b)
		}
	}
}

// regionBounds returns the bounding box of g's rectangles.
func regionBounds(g *Region) Rect {
	var b Rect
	for _, r := range g.Rects() {
		b = b.Union(r)
	}
	return b
}

func TestRegionAddAndArea(t *testing.T) {
	var g Region
	if !g.Empty() {
		t.Error("zero region not empty")
	}
	g.Add(R(0, 0, 10, 10))
	g.Add(R(20, 20, 30, 30))
	if got := g.Area(); got != 200 {
		t.Errorf("disjoint area = %d, want 200", got)
	}
	// Overlapping add merges.
	g.Add(R(5, 5, 25, 25)) // bridges both; all three merge into one box
	if len(g.Rects()) != 1 {
		t.Fatalf("rects after bridging add = %d, want 1", len(g.Rects()))
	}
	if got := regionBounds(&g); got != R(0, 0, 30, 30) {
		t.Errorf("bounds = %v", got)
	}
	g.Reset()
	if !g.Empty() || g.Area() != 0 {
		t.Error("Reset did not empty region")
	}
}

func TestRegionIgnoresEmpty(t *testing.T) {
	var g Region
	g.Add(Rect{})
	g.Add(R(5, 5, 5, 9))
	if !g.Empty() {
		t.Error("empty rects were added to region")
	}
}

// Property: every added rectangle is covered by the region, and region area
// never exceeds the bounding-box area.
func TestRegionCoverageProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		rng := rand.New(rand.NewSource(int64(len(seeds))*7919 + 13))
		var g Region
		var added []Rect
		for range seeds {
			r := randRect(rng)
			g.Add(r)
			if !r.Empty() {
				added = append(added, r)
			}
		}
		// Check coverage on a sample of points of each added rect.
		for _, r := range added {
			pts := [][2]int{{r.X0, r.Y0}, {r.X1 - 1, r.Y1 - 1}, {(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2}}
			for _, p := range pts {
				covered := false
				for _, m := range g.Rects() {
					if m.Contains(p[0], p[1]) {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
		return g.Area() <= regionBounds(&g).Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
