package surface

import (
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/sim"
)

// FuzzPaletteCompose is the palette-layer compositor differential fuzzer:
// the same surface stimulus — frame requests, V-Syncs, a mid-run second
// surface, session resets that recycle pooled buffers — drives a
// ComposeTiles manager with palette compression enabled and one with it
// disabled (its raw-tile twin) in lockstep. The visible framebuffer
// bytes and the FrameInfo stream (sequence, timing, dirty-pixel and
// render accounting) must stay byte-identical whatever the fuzzer finds:
// palette planes, promotion to raw, nibble-kernel blits and compares, and
// buffer recycling are pure representation changes.
func FuzzPaletteCompose(f *testing.F) {
	f.Add(int64(1), []byte{0, 5, 0, 5, 0, 5}, uint8(64), uint8(64))
	f.Add(int64(2), []byte{0, 0, 5, 4, 0, 3, 5, 5, 0, 5}, uint8(33), uint8(47))
	f.Add(int64(3), []byte{5, 0, 5, 0, 4, 5, 3, 5, 0, 3, 5, 0, 5}, uint8(96), uint8(40))
	f.Add(int64(4), []byte{0, 5, 4, 5, 6, 0, 5, 0, 5}, uint8(32), uint8(32))
	f.Add(int64(5), []byte{0, 5, 5, 5, 6, 0, 5, 4, 0, 5, 6, 0, 5}, uint8(80), uint8(130))

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8) {
		w := int(w8%100) + 16 // 16..115: mixes tile-aligned and partial-edge screens
		h := int(h8%120) + 16
		if len(ops) > 256 {
			ops = ops[:256]
		}

		mgrP := NewManager(sim.NewEngine(), w, h)
		mgrP.SetComposeMode(ComposeTiles)
		mgrP.SetPalettes(true)
		mgrO := NewManager(sim.NewEngine(), w, h)
		mgrO.SetComposeMode(ComposeTiles)

		// Client seeds are derived per session so both managers always
		// see identical draw sequences, including across resets.
		session := seed
		sP := mgrP.NewSurface("app", 1, newFuzzClient(session, w, h))
		sO := mgrO.NewSurface("app", 1, newFuzzClient(session, w, h))

		var infosP, infosO []FrameInfo
		mgrP.OnFrame(func(fi FrameInfo) { infosP = append(infosP, fi) })
		mgrO.OnFrame(func(fi FrameInfo) { infosO = append(infosO, fi) })

		var barP, barO *Surface // second surface, registered mid-run
		var vsyncs sim.Time
		for step, op := range ops {
			switch op % 8 {
			case 0, 1:
				sP.RequestFrame()
				sO.RequestFrame()
			case 2:
				if barP != nil {
					barP.RequestFrame()
					barO.RequestFrame()
				}
			case 3:
				sP.RequestFrame()
				sO.RequestFrame()
				if barP != nil {
					barP.RequestFrame()
					barO.RequestFrame()
				}
			case 4:
				if barP == nil {
					// A status-bar-like surface at a deliberately
					// tile-misaligned position; registering it demotes
					// direct scanout mid-run.
					fr := framebuffer.Rect{X0: 1, Y0: 1, X1: (w+1)/2 + 1, Y1: (h+1)/2 + 1}
					barP = mgrP.NewSurfaceAt("bar", 2, fr, newFuzzClient(session^0x5bd1e995, fr.Dx(), fr.Dy()))
					barO = mgrO.NewSurfaceAt("bar", 2, fr, newFuzzClient(session^0x5bd1e995, fr.Dx(), fr.Dy()))
				}
			case 6:
				// Session reset: surfaces drop, pooled buffers recycle.
				// The palette session's recycled buffers carry palette
				// planes and copy-on-write views; Recycle must neutralize
				// that provenance so the next session stays in lockstep
				// with the oracle's fresh-looking buffers.
				mgrP.Reset()
				mgrO.Reset()
				barP, barO = nil, nil
				session = seed ^ int64(step+1)*0x9e3779b9
				sP = mgrP.NewSurface("app", 1, newFuzzClient(session, w, h))
				sO = mgrO.NewSurface("app", 1, newFuzzClient(session, w, h))
			default:
				vsyncs++
				tNow := vsyncs * sim.Hz(60)
				mgrP.VSync(tNow, 60)
				mgrO.VSync(tNow, 60)
				if !mgrP.Framebuffer().Equal(mgrO.Framebuffer()) {
					t.Fatalf("step %d (%dx%d): palette framebuffer diverges from its raw-tile twin (scanout=%v, palTiles=%d)",
						step, w, h, mgrP.DirectScanout(), func() int { n, _ := mgrP.PaletteStats(); return n }())
				}
			}
		}
		if len(infosP) != len(infosO) {
			t.Fatalf("frame count: palettes latched %d, oracle %d", len(infosP), len(infosO))
		}
		for i := range infosP {
			if infosP[i] != infosO[i] {
				t.Fatalf("frame %d: palettes %+v, oracle %+v", i, infosP[i], infosO[i])
			}
		}
		if mgrP.Frames() != mgrO.Frames() {
			t.Fatalf("Frames(): palettes %d, oracle %d", mgrP.Frames(), mgrO.Frames())
		}
	})
}
