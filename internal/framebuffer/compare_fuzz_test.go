package framebuffer

import (
	"encoding/binary"
	"testing"
)

// refFill paints r into b one store at a time — the semantics the
// doubling-copy Fill must reproduce exactly.
func refFill(b *Buffer, r Rect, c Color) int {
	r = r.Clamp(b.Bounds())
	n := 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			b.Set(x, y, c)
			n++
		}
	}
	return n
}

// fuzzColors decodes the fuzz payload into a pixel slice of length n: four
// bytes per pixel, zero-padded when the payload runs short.
func fuzzColors(data []byte, n int) []Color {
	out := make([]Color, n)
	for i := 0; i < n; i++ {
		var v uint32
		if off := i * 4; off+4 <= len(data) {
			v = binary.LittleEndian.Uint32(data[off : off+4])
		} else if off < len(data) {
			rest := make([]byte, 4)
			copy(rest, data[off:])
			v = binary.LittleEndian.Uint32(rest)
		}
		out[i] = Color(v)
	}
	return out
}

// FuzzGridCompare differentially tests every optimized comparison kernel —
// SamplesFirstDiff's 8-way block scan, Buffer.Equal and the doubling-copy
// Fill — against their naive references on arbitrary
// pixel data and dimensions. The block kernels are only optimizations;
// any divergence from the element-wise reference is a bug.
func FuzzGridCompare(f *testing.F) {
	// Seeds cover the kernel edge cases: 1×1 (no full block), prime sizes
	// (scalar tail after the 8-wide blocks), all-equal data (the full-sweep
	// early-exit-free path), and a difference inside the final tail.
	f.Add(uint16(1), uint16(1), []byte{}, []byte{1, 0, 0, 0})
	f.Add(uint16(7), uint16(1), []byte{}, []byte{})
	f.Add(uint16(13), uint16(3), make([]byte, 13*3*4), make([]byte, 13*3*4))
	f.Add(uint16(17), uint16(2), []byte{1, 2, 3, 4}, []byte{4, 3, 2, 1})
	f.Add(uint16(8), uint16(8), make([]byte, 8*8*4), append(make([]byte, 8*8*4-4), 0xff, 0, 0, 0))

	f.Fuzz(func(t *testing.T, w, h uint16, adata, bdata []byte) {
		width := int(w%64) + 1
		height := int(h%64) + 1
		n := width * height
		av := fuzzColors(adata, n)
		bv := fuzzColors(bdata, n)

		// SamplesFirstDiff vs the element-wise reference: identical index,
		// not merely identical same/different classification.
		got := SamplesFirstDiff(av, bv)
		want := samplesFirstDiffRef(av, bv)
		if got != want {
			t.Fatalf("SamplesFirstDiff(%dx%d) = %d, ref = %d", width, height, got, want)
		}

		ab, bb := New(width, height), New(width, height)
		copy(ab.Pix(), av)
		copy(bb.Pix(), bv)

		if gotEq, wantEq := ab.Equal(bb), want < 0; gotEq != wantEq {
			t.Fatalf("Equal(%dx%d) = %v, ref = %v", width, height, gotEq, wantEq)
		}

		// Fill: the doubling-copy fill and the per-pixel reference must
		// produce identical buffers and counts for an arbitrary rectangle
		// (including empty and out-of-bounds ones, which Clamp discards).
		rect := Rect{
			X0: int(w) % (width + 2), Y0: int(h) % (height + 2),
			X1: n % (width + 2), Y1: (n / 2) % (height + 2),
		}
		c := Color(0)
		if len(adata) >= 4 {
			c = Color(binary.LittleEndian.Uint32(adata[:4]))
		}
		fa, fb := New(width, height), New(width, height)
		copy(fa.Pix(), av)
		copy(fb.Pix(), av)
		gotN := fa.Fill(rect, c)
		wantN := refFill(fb, rect, c)
		if gotN != wantN {
			t.Fatalf("Fill(%v) count = %d, ref = %d", rect, gotN, wantN)
		}
		if !fa.Equal(fb) {
			t.Fatalf("Fill(%v) pixels diverge from reference", rect)
		}
	})
}
