package app

import (
	"reflect"
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/input"
	"ccdem/internal/sim"
	"ccdem/internal/surface"
)

// styleRig attaches a model of a given style and hand-cranks vsyncs.
func styleRig(t *testing.T, style PaintStyle) (*Model, *surface.Manager, *sim.Engine) {
	t.Helper()
	p := Params{
		Name: "styletest", Cat: General, Style: style,
		IdleContentFPS: 10, IdleInvalidateFPS: 20,
		TouchContentFPS: 30, TouchInvalidateFPS: 40,
		Tail: 300 * sim.Millisecond,
	}
	eng := sim.NewEngine()
	mgr := surface.NewManager(eng, 240, 320)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(eng, mgr)
	eng.Every(sim.Hz(60), sim.Hz(60), func() { mgr.VSync(eng.Now(), 60) })
	return m, mgr, eng
}

func TestEveryStyleChangesPixels(t *testing.T) {
	for _, style := range []PaintStyle{StyleFeed, StyleSprites, StyleVideo, StylePulse} {
		style := style
		t.Run(styleName(style), func(t *testing.T) {
			_, mgr, eng := styleRig(t, style)
			eng.RunUntil(500 * sim.Millisecond)
			before := framebuffer.New(240, 320)
			before.CopyFrom(mgr.Framebuffer())
			eng.RunUntil(1500 * sim.Millisecond)
			if mgr.Framebuffer().Equal(before) {
				t.Error("a second of 10 fps content changed no pixels")
			}
		})
	}
}

func styleName(s PaintStyle) string {
	switch s {
	case StyleFeed:
		return "feed"
	case StyleSprites:
		return "sprites"
	case StyleVideo:
		return "video"
	case StylePulse:
		return "pulse"
	default:
		return "unknown"
	}
}

func TestFeedScrollProducesFreshRows(t *testing.T) {
	m, mgr, eng := styleRig(t, StyleFeed)
	eng.RunUntil(200 * sim.Millisecond)
	fb := mgr.Framebuffer()
	snapshots := make([]framebuffer.Color, 0, 4)
	for i := 0; i < 4; i++ {
		eng.RunUntil(eng.Now() + 500*sim.Millisecond)
		snapshots = append(snapshots, fb.At(120, 319)) // bottom row: freshly scrolled in
	}
	distinct := map[framebuffer.Color]bool{}
	for _, c := range snapshots {
		distinct[c] = true
	}
	if len(distinct) < 2 {
		t.Errorf("bottom row never changed across scrolls: %v", snapshots)
	}
	_ = m
}

func TestSpritesStayInBounds(t *testing.T) {
	m, _, eng := styleRig(t, StyleSprites)
	for i := 0; i < 600; i++ {
		eng.RunUntil(eng.Now() + 10*sim.Millisecond)
		for j, s := range m.sprites {
			if s.x < 0 || s.y < 0 || s.x+spriteSize > m.w || s.y+spriteSize > m.h {
				t.Fatalf("sprite %d out of bounds at (%d,%d)", j, s.x, s.y)
			}
		}
	}
}

func TestPauseResume(t *testing.T) {
	m, mgr, eng := styleRig(t, StylePulse)
	eng.RunUntil(sim.Second)
	if m.Paused() {
		t.Fatal("running model reports paused")
	}
	m.Pause()
	if !m.Paused() {
		t.Fatal("paused model reports running")
	}
	eng.RunUntil(eng.Now() + 100*sim.Millisecond) // drain pending request
	frames := mgr.Frames()
	intended := m.IntendedTotal()
	eng.RunUntil(eng.Now() + 2*sim.Second)
	if mgr.Frames() != frames {
		t.Errorf("paused app latched frames: %d → %d", frames, mgr.Frames())
	}
	if m.IntendedTotal() != intended {
		t.Error("paused app advanced content")
	}
	m.Resume()
	m.Resume() // idempotent
	eng.RunUntil(eng.Now() + 2*sim.Second)
	if mgr.Frames() <= frames {
		t.Error("resumed app latched no frames")
	}
	if m.IntendedTotal() <= intended {
		t.Error("resumed app advanced no content")
	}
}

func TestPausedAppIgnoresNothingButProducesNothing(t *testing.T) {
	// Touches delivered while paused must not crash and must not produce
	// frames (the event still updates interaction state for when the app
	// resumes, like Android queuing input to a stopped activity).
	m, mgr, eng := styleRig(t, StyleFeed)
	eng.RunUntil(sim.Second)
	m.Pause()
	eng.RunUntil(eng.Now() + 100*sim.Millisecond)
	frames := mgr.Frames()
	m.HandleTouch(input.Event{At: eng.Now(), Kind: input.TouchDown, X: 10, Y: 10})
	eng.RunUntil(eng.Now() + sim.Second)
	if mgr.Frames() != frames {
		t.Error("touch on paused app produced frames")
	}
}

func TestLullSuppressesContent(t *testing.T) {
	p := Params{
		Name: "lulltest", Cat: Game, Style: StyleSprites,
		IdleContentFPS: 40, IdleInvalidateFPS: 60,
		TouchContentFPS: 40, TouchInvalidateFPS: 60,
		FullScreenRender: true,
		LullPeriod:       4 * sim.Second, LullDuration: 2 * sim.Second, LullContentFPS: 2,
	}
	eng := sim.NewEngine()
	mgr := surface.NewManager(eng, 240, 320)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(eng, mgr)
	eng.Every(sim.Hz(60), sim.Hz(60), func() { mgr.VSync(eng.Now(), 60) })
	eng.RunUntil(20 * sim.Second)
	// Half the time at 40 fps, half at 2 fps → mean ≈ 21 fps of intent.
	rate := float64(m.IntendedTotal()) / 20
	if rate < 15 || rate > 28 {
		t.Errorf("mean intended rate with lulls = %v, want ≈21", rate)
	}
	// But frame requests stayed at 60 fps throughout (the game renders
	// its menu as fast as its gameplay).
	reqRate := float64(m.Surface().Requests()) / 20
	if reqRate < 55 {
		t.Errorf("request rate = %v, want ≈60 despite lulls", reqRate)
	}
}

func TestLullValidation(t *testing.T) {
	p := Params{Name: "x", LullPeriod: sim.Second, LullDuration: 2 * sim.Second}
	if err := p.Validate(); err == nil {
		t.Error("lull duration ≥ period accepted")
	}
	p = Params{Name: "x", LullPeriod: -1}
	if err := p.Validate(); err == nil {
		t.Error("negative lull accepted")
	}
}

func TestResumeBeforeAttachPanics(t *testing.T) {
	m, err := New(Params{Name: "x", Style: StylePulse})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Resume before Attach did not panic")
		}
	}()
	m.Resume()
}

// TestStateMemoFollowsTracking pins where the state memo runs: a feed app
// on a plain surface buffer (the brute-force oracle's) paints every
// content state itself, and the same app on a tracked buffer goes
// through the memo.
func TestStateMemoFollowsTracking(t *testing.T) {
	for _, tiles := range []bool{false, true} {
		eng := sim.NewEngine()
		mgr := surface.NewManager(eng, 240, 320)
		mgr.SetTiles(tiles)
		m, err := New(Params{
			Name: "memotest", Cat: General, Style: StyleFeed,
			IdleContentFPS: 10, IdleInvalidateFPS: 20,
			TouchContentFPS: 30, TouchInvalidateFPS: 40,
			Tail: 300 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Attach(eng, mgr)
		eng.Every(sim.Hz(60), sim.Hz(60), func() { mgr.VSync(eng.Now(), 60) })
		eng.RunUntil(sim.Second)
		if hits, misses := m.MemoStats(); (hits+misses > 0) != tiles {
			t.Errorf("tracked=%v: memo hits %d, misses %d", tiles, hits, misses)
		}
	}
}

// TestUndrawnModelBypassesMemo: a model that does not draw reports the
// damage and render cost of one that draws, writes no pixel and leaves
// the state memo untouched, install screen included, so no unwritten
// buffer can ever be served to a drawing model. The undrawn model runs
// first, on names no other test uses, so the memo is cold for it on the
// first run.
func TestUndrawnModelBypassesMemo(t *testing.T) {
	memoized := func(name string) int {
		stateScreenMu.RLock()
		defer stateScreenMu.RUnlock()
		n := 0
		for k := range stateScreens {
			if k.name == name {
				n++
			}
		}
		return n
	}
	for _, style := range []PaintStyle{StyleFeed, StyleSprites, StyleVideo, StylePulse} {
		p := Params{
			Name: "undrawn-" + styleName(style), Cat: General, Style: style,
			IdleContentFPS: 20, IdleInvalidateFPS: 30,
			TouchContentFPS: 30, TouchInvalidateFPS: 40,
		}
		var frames [2][]surface.FrameInfo
		stored := memoized(p.Name)
		for i, draw := range []bool{false, true} {
			eng := sim.NewEngine()
			mgr := surface.NewManager(eng, 240, 320)
			mgr.SetTiles(true)
			mgr.OnFrame(func(fi surface.FrameInfo) { frames[i] = append(frames[i], fi) })
			m, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			m.SetDraw(draw)
			m.Attach(eng, mgr)
			eng.Every(sim.Hz(60), sim.Hz(60), func() { mgr.VSync(eng.Now(), 60) })
			eng.RunUntil(2 * sim.Second)
			if draw {
				continue
			}
			if n := memoized(p.Name) - stored; n != 0 {
				t.Errorf("%s: undrawn model stored %d memo screens", p.Name, n)
			}
			if hits, misses := m.MemoStats(); hits+misses != 0 {
				t.Errorf("%s: undrawn model used the memo: %d hits, %d misses", p.Name, hits, misses)
			}
			if buf := m.Surface().Buffer(); !buf.Equal(framebuffer.New(240, 320)) {
				t.Errorf("%s: undrawn model wrote pixels", p.Name)
			}
		}
		if len(frames[0]) == 0 || !reflect.DeepEqual(frames[0], frames[1]) {
			t.Errorf("%s: undrawn model's %d frames differ from the drawing model's %d (damage or render cost)",
				p.Name, len(frames[0]), len(frames[1]))
		}
	}
}
