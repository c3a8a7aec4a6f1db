package surface

import (
	"testing"

	"ccdem/internal/sim"
)

// FuzzPaletteCompose is the pipeline-switch compositor fuzzer: the
// stimulus of FuzzTileCompose — frame requests, V-Syncs, a mid-run
// second surface, session resets that recycle pooled buffers — drives a
// manager whose pipeline the fuzzer switches between palette-compressed
// tiles and plain buffers, and a plain-buffer oracle, in lockstep. Op 6
// resets the session and crosses the switch, as device init does on a
// recycled device; op 14 crosses it mid-session, which SetTiles promises
// never changes content. Across every crossing — palette state built
// over live content, every tile realized back to raw, direct scanout
// demoted, pooled buffers recycled under one setting and re-tracked
// under the other — the visible framebuffer bytes and the FrameInfo
// stream must stay byte-identical to the oracle's.
func FuzzPaletteCompose(f *testing.F) {
	f.Add(int64(1), []byte{0, 5, 14, 0, 5, 14, 0, 5}, uint8(64), uint8(64))
	f.Add(int64(2), []byte{0, 0, 5, 4, 0, 14, 3, 5, 5, 14, 0, 5}, uint8(33), uint8(47))
	f.Add(int64(3), []byte{5, 0, 5, 0, 4, 5, 3, 14, 5, 0, 3, 5, 14, 0, 5}, uint8(96), uint8(40))
	f.Add(int64(4), []byte{0, 5, 4, 5, 6, 0, 5, 0, 5}, uint8(32), uint8(32))
	f.Add(int64(5), []byte{0, 5, 5, 5, 6, 0, 5, 4, 0, 5, 6, 0, 5}, uint8(80), uint8(130))

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8) {
		w := int(w8%100) + 16 // 16..115: mixes tile-aligned and partial-edge screens
		h := int(h8%120) + 16
		if len(ops) > 256 {
			ops = ops[:256]
		}

		tiles := true
		mgrP := NewManager(sim.NewEngine(), w, h)
		mgrP.SetTiles(tiles)
		mgrO := NewManager(sim.NewEngine(), w, h)

		// Client seeds are derived per session so both managers always
		// see identical draw sequences, including across resets.
		session := seed
		sP := mgrP.NewSurface("app", 1, newFuzzClient(session, w, h))
		sO := mgrO.NewSurface("app", 1, newFuzzClient(session, w, h))

		// Reset drops frame hooks, so every session re-registers them
		// and the streams cover the whole run.
		var infosP, infosO []FrameInfo
		observe := func() {
			mgrP.OnFrame(func(fi FrameInfo) { infosP = append(infosP, fi) })
			mgrO.OnFrame(func(fi FrameInfo) { infosO = append(infosO, fi) })
		}
		observe()

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
					// A second full-screen surface above the app;
					// registering it demotes direct scanout mid-run.
					barP = mgrP.NewSurface("bar", 2, newFuzzClient(session^0x5bd1e995, w, h))
					barO = mgrO.NewSurface("bar", 2, newFuzzClient(session^0x5bd1e995, w, h))
				}
			case 6:
				tiles = !tiles
				if op&8 != 0 {
					// Mid-session switch: registered buffers gain or
					// lose tracking with their content in place.
					mgrP.SetTiles(tiles)
					break
				}
				// Session reset: surfaces drop, pooled buffers recycle
				// under the old setting, and the new session's buffers
				// take the new one.
				mgrP.Reset()
				mgrO.Reset()
				mgrP.SetTiles(tiles)
				barP, barO = nil, nil
				session = seed ^ int64(step+1)*0x9e3779b9
				sP = mgrP.NewSurface("app", 1, newFuzzClient(session, w, h))
				sO = mgrO.NewSurface("app", 1, newFuzzClient(session, w, h))
				observe()
			default:
				vsyncs++
				tNow := vsyncs * sim.Hz(60)
				mgrP.VSync(tNow, 60)
				mgrO.VSync(tNow, 60)
				if !mgrP.Framebuffer().Equal(mgrO.Framebuffer()) {
					palTiles, _ := mgrP.PaletteStats()
					t.Fatalf("step %d (%dx%d, tiles=%v): framebuffer diverges from the oracle (scanout=%v, palTiles=%d)",
						step, w, h, tiles, mgrP.DirectScanout(), palTiles)
				}
			}
		}
		if len(infosP) != len(infosO) {
			t.Fatalf("frame count: switched manager latched %d, oracle %d", len(infosP), len(infosO))
		}
		for i := range infosP {
			if infosP[i] != infosO[i] {
				t.Fatalf("frame %d: switched manager %+v, oracle %+v", i, infosP[i], infosO[i])
			}
		}
		if mgrP.Frames() != mgrO.Frames() {
			t.Fatalf("Frames(): switched manager %d, oracle %d", mgrP.Frames(), mgrO.Frames())
		}
	})
}
