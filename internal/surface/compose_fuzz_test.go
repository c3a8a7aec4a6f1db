package surface

import (
	"math/rand"
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/sim"
)

// fuzzClient is a deterministic contract-honoring Client: every paint op
// it performs is covered by the damage region it reports, and a frame
// reported as redundant (empty damage) paints nothing. Two instances
// built from the same seed draw identical sequences, so a tile-pipeline
// and an oracle manager given the same stimulus render identical content.
type fuzzClient struct {
	rng    *rand.Rand
	aux    *framebuffer.Buffer // blit source, never mutated
	damage framebuffer.Region
}

func newFuzzClient(seed int64, w, h int) *fuzzClient {
	rng := rand.New(rand.NewSource(seed))
	aux := framebuffer.New(w, h)
	pix := aux.Pix()
	for i := range pix {
		pix[i] = framebuffer.Color(rng.Uint32() & 0x00ffffff)
	}
	return &fuzzClient{rng: rng, aux: aux}
}

// clientRect draws a rect roughly within (sometimes beyond) w × h,
// including zero-area and inverted shapes — the mutators clamp.
func (c *fuzzClient) clientRect(w, h int) framebuffer.Rect {
	return framebuffer.Rect{
		X0: c.rng.Intn(w+20) - 10,
		Y0: c.rng.Intn(h+20) - 10,
		X1: c.rng.Intn(w+20) - 10,
		Y1: c.rng.Intn(h+20) - 10,
	}
}

func (c *fuzzClient) RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int) {
	w, h := buf.Width(), buf.Height()
	c.damage.Reset()
	if c.rng.Intn(5) == 0 {
		// Redundant frame: the app re-rendered identical pixels. No
		// mutation, empty damage, but the render cost is still paid.
		return &c.damage, w * h
	}
	for n := c.rng.Intn(3) + 1; n > 0; n-- {
		var r framebuffer.Rect
		switch c.rng.Intn(4) {
		case 0:
			r = c.clientRect(w, h)
			buf.Fill(r, framebuffer.Color(c.rng.Uint32()&0x00ffffff))
		case 1:
			x, y := c.rng.Intn(w), c.rng.Intn(h)
			buf.Set(x, y, framebuffer.Color(c.rng.Uint32()&0x00ffffff))
			r = framebuffer.Rect{X0: x, Y0: y, X1: x + 1, Y1: y + 1}
		case 2:
			// ScrollVert returns the vacated repaint rect; the honest
			// damage is the whole scrolled region.
			r = c.clientRect(w, h)
			buf.ScrollVert(r, c.rng.Intn(2*h+1)-h)
		default:
			r = c.clientRect(w, h)
			buf.Blit(c.aux, r)
		}
		c.damage.Add(r.Clamp(buf.Bounds()))
	}
	return &c.damage, w * h
}

// FuzzTileCompose is the compositor differential fuzzer: the same
// surface stimulus — frame requests, V-Syncs, a mid-run second surface,
// session resets that recycle pooled buffers — drives a manager on the
// tile pipeline (SetTiles(true), the production configuration) and an
// oracle manager on plain buffers in lockstep. The visible framebuffer
// bytes and the FrameInfo stream (sequence, timing, dirty-pixel and
// render accounting) must stay byte-identical whatever the fuzzer finds:
// tile tracking, palette planes and their promotion to raw, direct
// scanout and its demotion, and buffer recycling are pure optimizations.
func FuzzTileCompose(f *testing.F) {
	f.Add(int64(1), []byte{0, 5, 0, 5, 0, 5}, uint8(64), uint8(64))
	f.Add(int64(2), []byte{0, 0, 5, 4, 0, 3, 5, 5, 0, 5}, uint8(33), uint8(47))
	f.Add(int64(3), []byte{5, 0, 5, 0, 4, 5, 3, 5, 0, 3, 5, 0, 5}, uint8(96), uint8(40))
	f.Add(int64(4), []byte{0, 5, 4, 5, 0, 5}, uint8(32), uint8(32))
	f.Add(int64(5), []byte{0, 5, 5, 5, 0, 5, 0, 5, 0, 5, 0, 5}, uint8(80), uint8(130))
	f.Add(int64(4), []byte{0, 5, 4, 5, 6, 0, 5, 0, 5}, uint8(32), uint8(32))
	f.Add(int64(5), []byte{0, 5, 5, 5, 6, 0, 5, 4, 0, 5, 6, 0, 5}, uint8(80), uint8(130))

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8) {
		w := int(w8%100) + 16 // 16..115: mixes tile-aligned and partial-edge screens
		h := int(h8%120) + 16
		if len(ops) > 256 {
			ops = ops[:256]
		}

		mgrT := NewManager(sim.NewEngine(), w, h)
		mgrT.SetTiles(true)
		mgrN := NewManager(sim.NewEngine(), w, h)

		// Client seeds are derived per session so both managers always
		// see identical draw sequences, including across resets.
		session := seed
		sT := mgrT.NewSurface("app", 1, newFuzzClient(session, w, h))
		sN := mgrN.NewSurface("app", 1, newFuzzClient(session, w, h))

		// Reset drops frame hooks, so every session re-registers them
		// and the streams cover the whole run.
		var infosT, infosN []FrameInfo
		observe := func() {
			mgrT.OnFrame(func(fi FrameInfo) { infosT = append(infosT, fi) })
			mgrN.OnFrame(func(fi FrameInfo) { infosN = append(infosN, fi) })
		}
		observe()

		var barT, barN *Surface // second surface, registered mid-run
		var vsyncs sim.Time
		for step, op := range ops {
			switch op % 8 {
			case 0, 1:
				sT.RequestFrame()
				sN.RequestFrame()
			case 2:
				if barT != nil {
					barT.RequestFrame()
					barN.RequestFrame()
				}
			case 3:
				sT.RequestFrame()
				sN.RequestFrame()
				if barT != nil {
					barT.RequestFrame()
					barN.RequestFrame()
				}
			case 4:
				if barT == nil {
					// A second full-screen surface above the app;
					// registering it demotes direct scanout mid-run.
					barT = mgrT.NewSurface("bar", 2, newFuzzClient(session^0x5bd1e995, w, h))
					barN = mgrN.NewSurface("bar", 2, newFuzzClient(session^0x5bd1e995, w, h))
				}
			case 6:
				// Session reset: surfaces drop, pooled buffers recycle.
				// The tile session's recycled buffers carry palette planes
				// and copy-on-write views; Recycle must neutralize that
				// provenance so the next session stays in lockstep with
				// the oracle.
				mgrT.Reset()
				mgrN.Reset()
				barT, barN = nil, nil
				session = seed ^ int64(step+1)*0x9e3779b9
				sT = mgrT.NewSurface("app", 1, newFuzzClient(session, w, h))
				sN = mgrN.NewSurface("app", 1, newFuzzClient(session, w, h))
				observe()
			default:
				vsyncs++
				tNow := vsyncs * sim.Hz(60)
				mgrT.VSync(tNow, 60)
				mgrN.VSync(tNow, 60)
				if !mgrT.Framebuffer().Equal(mgrN.Framebuffer()) {
					tiles, _ := mgrT.PaletteStats()
					t.Fatalf("step %d (%dx%d): tile framebuffer diverges from the oracle (scanout=%v, palTiles=%d)",
						step, w, h, mgrT.DirectScanout(), tiles)
				}
			}
		}
		if len(infosT) != len(infosN) {
			t.Fatalf("frame count: tiles latched %d, oracle %d", len(infosT), len(infosN))
		}
		for i := range infosT {
			if infosT[i] != infosN[i] {
				t.Fatalf("frame %d: tiles %+v, oracle %+v", i, infosT[i], infosN[i])
			}
		}
		if mgrT.Frames() != mgrN.Frames() {
			t.Fatalf("Frames(): tiles %d, oracle %d", mgrT.Frames(), mgrN.Frames())
		}
	})
}
