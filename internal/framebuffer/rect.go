package framebuffer

import "fmt"

// Rect is a half-open rectangle [X0,X1) × [Y0,Y1) in pixel coordinates,
// matching the convention of image.Rectangle but without pulling in the
// image package's color machinery.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// R is shorthand for constructing a Rect.
func R(x0, y0, x1, y1 int) Rect { return Rect{x0, y0, x1, y1} }

// Dx returns the width of r.
func (r Rect) Dx() int { return r.X1 - r.X0 }

// Dy returns the height of r.
func (r Rect) Dy() int { return r.Y1 - r.Y0 }

// Area returns the number of pixels covered by r, zero when empty.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.Dx() * r.Dy()
}

// Empty reports whether r covers no pixels.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Contains reports whether the pixel (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the largest rectangle contained in both r and s. The
// result is empty when they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	if r.X0 < s.X0 {
		r.X0 = s.X0
	}
	if r.Y0 < s.Y0 {
		r.Y0 = s.Y0
	}
	if r.X1 > s.X1 {
		r.X1 = s.X1
	}
	if r.Y1 > s.Y1 {
		r.Y1 = s.Y1
	}
	if r.Empty() {
		return Rect{}
	}
	return r
}

// Union returns the smallest rectangle containing both r and s. An empty
// rectangle is the identity element.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	if r.X0 > s.X0 {
		r.X0 = s.X0
	}
	if r.Y0 > s.Y0 {
		r.Y0 = s.Y0
	}
	if r.X1 < s.X1 {
		r.X1 = s.X1
	}
	if r.Y1 < s.Y1 {
		r.Y1 = s.Y1
	}
	return r
}

// Overlaps reports whether r and s share at least one pixel.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Clamp restricts r to lie within bounds.
func (r Rect) Clamp(bounds Rect) Rect { return r.Intersect(bounds) }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("(%d,%d)-(%d,%d)", r.X0, r.Y0, r.X1, r.Y1)
}

// Region is a damage region: a set of rectangles accumulated between frame
// latches. SurfaceFlinger tracks damage the same way to limit composition
// work; we use it both to bound render cost accounting and to blit only
// what changed.
//
// The representation is a small slice of rectangles; Add coalesces a new
// rectangle into an existing one when they overlap, which keeps the region
// compact for the workloads in this reproduction (a handful of sprites or
// one scroll area per frame).
type Region struct {
	rects []Rect
}

// Add accumulates r into the region, merging it with any overlapping
// rectangle already present. Empty rectangles are ignored.
func (g *Region) Add(r Rect) {
	if r.Empty() {
		return
	}
	for i := range g.rects {
		if g.rects[i].Overlaps(r) {
			merged := g.rects[i].Union(r)
			// Remove i and re-add the merged rect, since the union may now
			// overlap other members.
			g.rects[i] = g.rects[len(g.rects)-1]
			g.rects = g.rects[:len(g.rects)-1]
			g.Add(merged)
			return
		}
	}
	g.rects = append(g.rects, r)
}

// Empty reports whether the region covers nothing.
func (g *Region) Empty() bool { return len(g.rects) == 0 }

// Rects returns the region's rectangles. The slice is owned by the region
// and invalidated by the next Add or Reset.
func (g *Region) Rects() []Rect { return g.rects }

// Area returns the total pixel count of the region's rectangles. Because
// Add merges overlapping rectangles, members are disjoint and the sum is
// exact.
func (g *Region) Area() int {
	total := 0
	for _, r := range g.rects {
		total += r.Area()
	}
	return total
}

// Reset empties the region, retaining storage.
func (g *Region) Reset() { g.rects = g.rects[:0] }
