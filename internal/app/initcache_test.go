package app

import (
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/sim"
	"ccdem/internal/surface"
)

// TestStateScreenBudgetNeverBinds pins the invariant the memo's
// determinism rests on: admission is a pure function of the key, so per
// screen geometry the admissible keys are exactly one install screen per
// catalog app plus stateSeqCap feed states per feed app — and that count
// must stay under stateScreenBudget. The memo holds one entry per
// admissible key painted, a feed state painted once included (with no
// screen until its second paint), so this count bounds its entries. If
// the budget could bind, which keys got recorded would depend on arrival
// order, and the memo hit/miss counters would stop being deterministic
// across fleet worker counts. Growing the catalog past this margin
// requires raising the budget (or tightening memoAdmit) in the same
// change.
func TestStateScreenBudgetNeverBinds(t *testing.T) {
	installs, feeds := 0, 0
	for _, p := range Catalog() {
		installs++
		if p.Style == StyleFeed {
			feeds++
		}
	}
	worst := installs + feeds*stateSeqCap
	if worst >= stateScreenBudget {
		t.Fatalf("admissible keys per geometry = %d (%d installs + %d feed apps × %d states) >= budget %d; "+
			"a binding budget makes cache admission arrival-order-dependent",
			worst, installs, feeds, stateSeqCap, stateScreenBudget)
	}
}

// TestMemoAdmitIsKeyPure spot-checks the admission predicate: installs of
// any style qualify, intermediate states qualify only for feeds inside
// the seq window.
func TestMemoAdmitIsKeyPure(t *testing.T) {
	for _, style := range []PaintStyle{StyleFeed, StyleSprites, StyleVideo, StylePulse} {
		if !memoAdmit(stateKey{name: "x", style: style, w: 720, h: 1280}) {
			t.Errorf("install screen (seq 0, style %v) not admitted", style)
		}
		got := memoAdmit(stateKey{name: "x", style: style, w: 720, h: 1280, seq: 1})
		if want := style == StyleFeed; got != want {
			t.Errorf("seq 1 admission for style %v = %v, want %v", style, got, want)
		}
	}
	if memoAdmit(stateKey{name: "x", style: StyleFeed, w: 720, h: 1280, seq: stateSeqCap + 1}) {
		t.Error("feed state past stateSeqCap admitted")
	}
	if !memoAdmit(stateKey{name: "x", style: StyleFeed, w: 720, h: 1280, seq: stateSeqCap}) {
		t.Error("feed state at stateSeqCap not admitted")
	}
}

// TestInstallScreensCompress pins the property install memoization rests
// on: storeStateScreen stores only screens that palette-compress in full,
// so an install screen that did not would be repainted by every install.
// The install screen of every catalog app, painted in each of the four
// styles at phone and tablet sizes, small and odd sizes with partial edge
// tiles, and one-tile-thin strips, must compress. Whether a screen
// compresses depends on its content alone, so painting on tracked buffers
// covers the plain-buffer pipeline too.
func TestInstallScreensCompress(t *testing.T) {
	sizes := [][2]int{{720, 1280}, {1080, 1920}, {64, 64}, {33, 47}, {16, 16}, {9, 200}, {200, 9}}
	if testing.Short() {
		sizes = sizes[2:]
	}
	for _, p := range Catalog() {
		for _, style := range []PaintStyle{StyleFeed, StyleSprites, StyleVideo, StylePulse} {
			p.Style = style
			for _, sz := range sizes {
				m, err := New(p)
				if err != nil {
					t.Fatal(err)
				}
				m.w, m.h = sz[0], sz[1]
				m.initSprites()
				buf := framebuffer.New(m.w, m.h)
				buf.EnableTiles()
				m.paintInitial(buf)
				if framebuffer.NewPaletteSnapshot(buf) == nil {
					t.Errorf("%s painted as style %v at %dx%d: install screen does not palette-compress",
						p.Name, style, m.w, m.h)
				}
			}
		}
	}
}

// TestFeedStateEntersMemoOnSecondPaint pins second-paint admission. In a
// process whose memo has never seen the app, each content state of a feed
// app that d devices paint takes min(d, 2) misses and d − min(d, 2) hits:
// 1/0, 2/0 and 2/1 misses/hits for 1, 2 and 3 devices. The first paint
// records the key with no screen, the second stores the snapshot. The
// install screen is stored by the first install and shared from the
// second.
func TestFeedStateEntersMemoOnSecondPaint(t *testing.T) {
	p := Params{
		Name: "second-paint", Cat: General, Style: StyleFeed,
		IdleContentFPS: 10, IdleInvalidateFPS: 20,
		TouchContentFPS: 30, TouchInvalidateFPS: 40,
	}
	// entries counts the app's feed-state keys without and with a screen,
	// and returns its install screen.
	entries := func() (recorded, stored int, install *framebuffer.Buffer) {
		stateScreenMu.RLock()
		defer stateScreenMu.RUnlock()
		for k, screen := range stateScreens {
			switch {
			case k.name != p.Name:
			case k.seq == 0:
				install = screen
			case screen == nil:
				recorded++
			default:
				stored++
			}
		}
		return recorded, stored, install
	}
	var states uint64 // feed states each device paints
	for d := uint64(1); d <= 3; d++ {
		eng := sim.NewEngine()
		mgr := surface.NewManager(eng, 240, 320)
		mgr.SetTiles(true)
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		m.Attach(eng, mgr)
		if shared := m.Surface().Buffer().Shared(); shared != (d > 1) {
			t.Errorf("install %d: install screen shared from the memo = %v", d, shared)
		}
		eng.Every(sim.Hz(60), sim.Hz(60), func() { mgr.VSync(eng.Now(), 60) })
		eng.RunUntil(sim.Second)
		hits, misses := m.MemoStats()
		if d == 1 {
			states = misses
		}
		wantHits, wantMisses := uint64(0), states
		if d > 2 {
			wantHits, wantMisses = states, 0
		}
		if hits != wantHits || misses != wantMisses {
			t.Errorf("device %d: %d hits, %d misses; want %d, %d", d, hits, misses, wantHits, wantMisses)
		}
		recorded, stored, install := entries()
		if install == nil {
			t.Errorf("device %d: install screen not stored", d)
		}
		if d == 1 && (recorded != int(states) || stored != 0) || d > 1 && (recorded != 0 || stored != int(states)) {
			t.Errorf("device %d: %d feed states recorded without a screen, %d stored, of %d painted", d, recorded, stored, states)
		}
	}
	if states == 0 {
		t.Fatal("the feed app painted no memoizable state")
	}
	t.Logf("%d feed states per device", states)
}
