package framebuffer

import (
	"math/rand"
	"testing"
)

func TestColorPacking(t *testing.T) {
	c := RGB(0x12, 0x34, 0x56)
	if c != 0x123456 {
		t.Errorf("RGB packed to %#x", uint32(c))
	}
	r, g, b := c.RGB()
	if r != 0x12 || g != 0x34 || b != 0x56 {
		t.Errorf("unpacked to %#x %#x %#x", r, g, b)
	}
}

func TestColorLuminance(t *testing.T) {
	if got := Black.Luminance(); got != 0 {
		t.Errorf("black luminance = %v", got)
	}
	if got := White.Luminance(); got < 254.9 || got > 255.1 {
		t.Errorf("white luminance = %v, want ≈255", got)
	}
	if g, r := RGB(0, 200, 0).Luminance(), RGB(200, 0, 0).Luminance(); g <= r {
		t.Errorf("green luma %v should exceed red luma %v", g, r)
	}
}

func TestBufferFillAndAt(t *testing.T) {
	b := New(8, 6)
	if b.Width() != 8 || b.Height() != 6 {
		t.Fatalf("dims = %dx%d", b.Width(), b.Height())
	}
	n := b.Fill(R(2, 1, 5, 4), RGB(10, 20, 30))
	if n != 9 {
		t.Errorf("Fill wrote %d pixels, want 9", n)
	}
	if b.At(2, 1) != RGB(10, 20, 30) || b.At(4, 3) != RGB(10, 20, 30) {
		t.Error("filled pixels not set")
	}
	if b.At(1, 1) != Black || b.At(5, 4) != Black {
		t.Error("pixels outside fill modified")
	}
	// Fill clamps to bounds.
	n = b.Fill(R(6, 4, 100, 100), White)
	if n != 2*2 {
		t.Errorf("clamped Fill wrote %d, want 4", n)
	}
}

func TestBufferCopyBlitEqual(t *testing.T) {
	src := New(10, 10)
	src.Fill(R(0, 0, 10, 10), RGB(1, 2, 3))
	src.Fill(R(3, 3, 6, 6), White)

	dst := New(10, 10)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom result not Equal")
	}

	dst.Set(0, 0, White)
	if dst.Equal(src) {
		t.Error("Equal after single-pixel change")
	}

	// Blit the white square to the same place.
	other := New(10, 10)
	n := other.Blit(src, R(3, 3, 6, 6))
	if n != 9 {
		t.Errorf("Blit copied %d, want 9", n)
	}
	if other.At(3, 3) != White || other.At(5, 5) != White {
		t.Error("blitted pixels wrong")
	}
	if other.At(2, 2) != Black || other.At(6, 6) != Black {
		t.Error("pixel outside the blitted rect modified")
	}
	// Blit clipped at the buffers' edge.
	n = other.Blit(src, R(7, 8, 20, 20))
	if n != 3*2 {
		t.Errorf("clipped Blit copied %d, want 6", n)
	}
	if other.At(9, 9) != RGB(1, 2, 3) {
		t.Error("clipped Blit pixels wrong")
	}
	// Blit clipped against a smaller source.
	small := New(4, 2)
	small.FillAll(White)
	if n = other.Blit(small, R(0, 0, 10, 10)); n != 4*2 {
		t.Errorf("Blit from a 4x2 source copied %d, want 8", n)
	}
	if other.At(3, 1) != White || other.At(4, 1) != Black || other.At(3, 2) != Black {
		t.Error("Blit from a smaller source wrote outside it")
	}
}

func TestBufferEqualDifferentSizes(t *testing.T) {
	if New(4, 4).Equal(New(4, 5)) {
		t.Error("buffers of different sizes reported Equal")
	}
}

func TestScrollVertDown(t *testing.T) {
	b := New(4, 6)
	for y := 0; y < 6; y++ {
		b.Fill(R(0, y, 4, y+1), RGB(uint8(y), 0, 0))
	}
	repaint := b.ScrollVert(b.Bounds(), 2)
	if repaint != R(0, 0, 4, 2) {
		t.Errorf("repaint rect = %v, want rows 0-2", repaint)
	}
	for y := 2; y < 6; y++ {
		if b.At(0, y) != RGB(uint8(y-2), 0, 0) {
			t.Errorf("row %d = %v, want original row %d", y, b.At(0, y), y-2)
		}
	}
}

func TestScrollVertUp(t *testing.T) {
	b := New(4, 6)
	for y := 0; y < 6; y++ {
		b.Fill(R(0, y, 4, y+1), RGB(uint8(y), 0, 0))
	}
	repaint := b.ScrollVert(b.Bounds(), -2)
	if repaint != R(0, 4, 4, 6) {
		t.Errorf("repaint rect = %v, want rows 4-6", repaint)
	}
	for y := 0; y < 4; y++ {
		if b.At(0, y) != RGB(uint8(y+2), 0, 0) {
			t.Errorf("row %d = %v, want original row %d", y, b.At(0, y), y+2)
		}
	}
}

func TestScrollVertWholeRegion(t *testing.T) {
	b := New(4, 4)
	if got := b.ScrollVert(b.Bounds(), 10); got != b.Bounds() {
		t.Errorf("overshooting scroll repaint = %v, want full bounds", got)
	}
	if got := b.ScrollVert(b.Bounds(), 0); !got.Empty() {
		t.Errorf("zero scroll repaint = %v, want empty", got)
	}
}

// Property: ScrollVert preserves the multiset of surviving rows.
func TestScrollPreservesRowsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 100; iter++ {
		h := 8 + rng.Intn(24)
		b := New(5, h)
		rows := make([]Color, h)
		for y := 0; y < h; y++ {
			rows[y] = RGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), 0)
			b.Fill(R(0, y, 5, y+1), rows[y])
		}
		dy := rng.Intn(2*h) - h
		b.ScrollVert(b.Bounds(), dy)
		if dy == 0 || abs(dy) >= h {
			continue
		}
		if dy > 0 {
			for y := dy; y < h; y++ {
				if b.At(0, y) != rows[y-dy] {
					t.Fatalf("iter %d: row %d after scroll %d is wrong", iter, y, dy)
				}
			}
		} else {
			for y := 0; y < h+dy; y++ {
				if b.At(0, y) != rows[y-dy] {
					t.Fatalf("iter %d: row %d after scroll %d is wrong", iter, y, dy)
				}
			}
		}
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}

func BenchmarkFillSprite(b *testing.B) {
	buf := New(720, 1280)
	for i := 0; i < b.N; i++ {
		buf.Fill(R(100, 100, 140, 140), Color(i))
	}
}
