package app

import (
	"ccdem/internal/framebuffer"
)

// Painters turn abstract "content advanced" events into actual pixel
// changes, so the meter's grid comparison sees realistic damage. Every
// painter guarantees that a content advance changes a region large enough
// to cross grid sample points at the recommended 9K lattice (cell stride
// ≈10 px on the 720×1280 screen); live-wallpaper-style sub-stride changes
// are exercised separately by internal/wallpaper for the Figure 6 accuracy
// experiment.

const (
	headerH     = 48 // status/app bar height for feed apps
	feedRowH    = 24 // scroll step per content advance
	feedHeadH   = 5  // header band at the top of each list row
	spriteCount = 6
	spriteSize  = 48
	pulseSize   = 120
	bandW       = 60 // video pattern band width
)

// hashColor derives a stable pseudo-random color from a sequence number
// and a salt, bright enough to differ from the backgrounds in use.
func hashColor(seq uint64, salt uint64) framebuffer.Color {
	x := seq*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 27
	r := uint8(40 + (x>>0)%200)
	g := uint8(40 + (x>>8)%200)
	b := uint8(40 + (x>>16)%200)
	return framebuffer.RGB(r, g, b)
}

// spriteSz returns the sprite edge adapted to the screen: the standard
// 48 px on phone-sized screens, shrinking so at least two sprite widths
// fit on tiny test screens.
func (m *Model) spriteSz() int {
	sz := spriteSize
	if lim := min(m.w, m.h) / 2; sz > lim {
		sz = lim
	}
	if sz < 1 {
		sz = 1
	}
	return sz
}

// headerPx returns the app-bar height adapted to the screen.
func (m *Model) headerPx() int {
	h := headerH
	if lim := m.h / 4; h > lim {
		h = lim
	}
	return h
}

func (m *Model) bgColor() framebuffer.Color {
	switch m.p.Style {
	case StyleSprites:
		return framebuffer.RGB(18, 18, 30)
	case StyleVideo:
		return framebuffer.Black
	default:
		return framebuffer.RGB(245, 245, 245)
	}
}

// initPaint draws the app's initial screen into its surface buffer before
// the first frame latches. The screen is a pure function of (name, style,
// width, height) — backgrounds and colors derive from style and salt,
// sprite positions from the name-seeded rng, and scroll/content state
// starts at zero — so identical installs on the tile pipeline share one
// memoized screen via copy-on-write (see initcache.go) instead of
// repainting ~1 MB of pixels. Like the feed-state memo (paint), it runs
// only when buf tracks tiles: a plain buffer, the oracle pipeline's,
// paints its install screen and stores nothing, so it never reads or
// aliases a palette snapshot.
//
// A model that does not draw (SetDraw) leaves the buffer unwritten and
// keeps only the painter state a memo hit keeps.
func (m *Model) initPaint() {
	buf := m.srf.Buffer()
	m.initSprites()
	if !m.noDraw {
		if !buf.TilesEnabled() {
			m.paintInitial(buf)
			return
		}
		key := stateKey{name: m.p.Name, style: m.p.Style, w: m.w, h: m.h}
		memo := lookupStateScreen(key)
		if memo == nil {
			m.paintInitial(buf)
			storeStateScreen(key, buf)
			return
		}
		buf.ShareFrom(memo)
	}
	if m.p.Style == StyleSprites {
		// paintSprites did not run: record the drawn positions it
		// would have, so the first content paint erases them.
		m.prevSprites = append(m.prevSprites[:0], m.sprites...)
	}
}

// initSprites draws a sprite app's kinematic state from the rng. It runs
// on every install — memo hit or not — so every install performs
// identical draws.
func (m *Model) initSprites() {
	if m.p.Style != StyleSprites {
		return
	}
	sz := m.spriteSz()
	rng := m.ensureRNG()
	m.sprites = make([]spriteState, spriteCount)
	for i := range m.sprites {
		m.sprites[i] = spriteState{
			x:  rng.Intn(max(m.w-sz, 1)),
			y:  rng.Intn(max(m.h-sz, 1)),
			dx: 12 + rng.Intn(10),
			dy: 12 + rng.Intn(10),
		}
		if rng.Intn(2) == 0 {
			m.sprites[i].dx = -m.sprites[i].dx
		}
		if rng.Intn(2) == 0 {
			m.sprites[i].dy = -m.sprites[i].dy
		}
	}
}

// paintInitial renders the initial screen from scratch (the memo-miss
// path, and the oracle the memo is differentially tested against).
func (m *Model) paintInitial(buf *framebuffer.Buffer) {
	buf.FillAll(m.bgColor())
	switch m.p.Style {
	case StyleFeed:
		buf.Fill(framebuffer.R(0, 0, m.w, m.headerPx()), hashColor(0, m.salt()))
		m.paintFeedRows(buf, framebuffer.R(0, m.headerPx(), m.w, m.h))
	case StyleSprites:
		m.paintSprites(buf)
	case StyleVideo:
		m.paintVideo(buf)
	case StylePulse:
		buf.Fill(framebuffer.R(0, 0, m.w, m.headerPx()), hashColor(0, m.salt()))
		m.paintPulse(buf)
	}
}

func (m *Model) salt() uint64 { return m.saltV }

// advanceContent moves the app's content state forward by one step.
func (m *Model) advanceContent() {
	m.contentSeq++
	switch m.p.Style {
	case StyleFeed:
		m.scrollPos += feedRowH
	case StyleSprites:
		sz := m.spriteSz()
		for i := range m.sprites {
			s := &m.sprites[i]
			s.x += s.dx
			s.y += s.dy
			if s.x < 0 {
				s.x, s.dx = 0, -s.dx
			}
			if s.x > m.w-sz {
				s.x, s.dx = max(m.w-sz, 0), -s.dx
			}
			if s.y < 0 {
				s.y, s.dy = 0, -s.dy
			}
			if s.y > m.h-sz {
				s.y, s.dy = max(m.h-sz, 0), -s.dy
			}
		}
	}
}

// paint renders the state of contentSeq into buf, accumulating the
// damaged rectangles into m.damage.
//
// The state memo runs when buf tracks tiles — the hit path aliases
// palette-compressed snapshots, the tile pipeline's representation — as
// the install-screen memo (seq 0, see initPaint) does. With the content
// still in the memoizable window, the screen for contentSeq may already
// exist (painted earlier by any device): the hit path records exactly
// the damage painting would have reported and aliases the memo
// copy-on-write instead of writing pixels. The miss path paints normally
// and records the key, or publishes the screen when the key was painted
// before (storeStateScreen). Both paths report identical damage and
// render cost, so every downstream decision — dirty-pixel accounting,
// compose, metering — is byte-for-byte the same with and without the
// memo (the golden and differential tests hold this line). A model that does not draw (SetDraw) takes only the
// hit path's damage bookkeeping: no pixels, no memo lookup or store, so
// its unwritten buffer never enters the memo.
func (m *Model) paint(buf *framebuffer.Buffer) {
	if m.noDraw {
		m.memoDamage()
		return
	}
	key := stateKey{name: m.p.Name, style: m.p.Style, w: m.w, h: m.h, seq: m.contentSeq}
	if buf.TilesEnabled() && memoAdmit(key) {
		if memo := lookupStateScreen(key); memo != nil {
			m.memoHit(memo, buf)
			return
		}
		// Singleflight the paints that miss: re-check under the key's
		// stripe so concurrent devices produce exactly min(d, 2) misses
		// (and one snapshot, on the second) for a key d devices paint,
		// keeping summed hit/miss counters independent of worker
		// scheduling.
		lock := stripeFor(key)
		lock.Lock()
		if memo := lookupStateScreen(key); memo != nil {
			lock.Unlock()
			m.memoHit(memo, buf)
			return
		}
		m.memoMisses++
		m.paintStyle(buf)
		storeStateScreen(key, buf)
		lock.Unlock()
		return
	}
	m.paintStyle(buf)
}

// memoHit applies a memoized screen: record the damage painting would
// have reported, then alias the memo copy-on-write over exactly those
// rectangles.
func (m *Model) memoHit(memo, buf *framebuffer.Buffer) {
	m.memoHits++
	m.memoDamage()
	buf.ShareFromDamage(memo, m.damage.Rects())
}

// memoDamage accumulates into m.damage exactly the rectangles paintStyle
// would have, in the same Region.Add order (Add's merging is
// order-sensitive, and the damage region feeds dirty-pixel accounting),
// and performs the painter-state updates the skipped paint would have
// done (prevSprites tracking). It is the whole render of a model that
// does not draw.
func (m *Model) memoDamage() {
	switch m.p.Style {
	case StyleFeed:
		m.damage.Add(framebuffer.R(0, m.headerPx(), m.w, m.h))
	case StyleSprites:
		sz := m.spriteSz()
		for _, s := range m.prevSprites {
			m.damage.Add(framebuffer.R(s.x, s.y, s.x+sz, s.y+sz))
		}
		m.prevSprites = m.prevSprites[:0]
		for _, s := range m.sprites {
			m.damage.Add(framebuffer.R(s.x, s.y, s.x+sz, s.y+sz))
			m.prevSprites = append(m.prevSprites, s)
		}
	case StyleVideo:
		m.damage.Add(m.videoRect())
	case StylePulse:
		m.damage.Add(m.pulseRect())
	}
}

// paintStyle renders the state of contentSeq into buf from the buffer's
// current (drawnSeq) content — the memo-miss path, and the oracle the
// memo hit path is differentially tested against.
func (m *Model) paintStyle(buf *framebuffer.Buffer) {
	switch m.p.Style {
	case StyleFeed:
		region := framebuffer.R(0, m.headerPx(), m.w, m.h)
		steps := int(m.contentSeq - m.drawnSeq)
		dy := steps * feedRowH
		if dy >= region.Dy() {
			m.paintFeedRows(buf, region)
		} else {
			repaint := buf.ScrollVert(region, -dy) // content moves up as the list scrolls
			m.paintFeedRows(buf, repaint)
		}
		m.damage.Add(region) // scrolling moves every pixel of the region
	case StyleSprites:
		// Erase sprites at previously drawn positions, then draw at the
		// new ones; each rectangle is tracked individually.
		sz := m.spriteSz()
		for _, s := range m.prevSprites {
			r := framebuffer.R(s.x, s.y, s.x+sz, s.y+sz)
			buf.Fill(r, m.bgColor())
			m.damage.Add(r)
		}
		m.paintSprites(buf)
	case StyleVideo:
		m.damage.Add(m.paintVideo(buf))
	case StylePulse:
		m.damage.Add(m.paintPulse(buf))
	}
}

// paintFeedRows fills r with list rows whose colors derive from absolute
// scroll position, so scrolled-in rows always differ from what they
// replace. Each 24-px list row shows a 5-px header band and a lightened
// 19-px body; the bands go to the buffer as one FillRects batch, one rect
// per band, so each tile is written once.
func (m *Model) paintFeedRows(buf *framebuffer.Buffer, r framebuffer.Rect) {
	r = r.Clamp(framebuffer.R(0, m.headerPx(), m.w, m.h))
	if r.Empty() {
		return
	}
	m.batch, m.batchColors = m.batch[:0], m.batchColors[:0]
	for y := r.Y0; y < r.Y1; {
		pos := m.scrollPos + y
		top := pos - pos%feedRowH // the list row's absolute top
		c := hashColor(uint64(top/feedRowH), m.salt())
		end := top + feedHeadH
		if pos >= end { // the body is lightened
			rr, g, b := c.RGB()
			c = framebuffer.RGB(rr/2+110, g/2+110, b/2+110)
			end = top + feedRowH
		}
		y1 := min(y+end-pos, r.Y1)
		m.batch = append(m.batch, framebuffer.R(r.X0, y, r.X1, y1))
		m.batchColors = append(m.batchColors, c)
		y = y1
	}
	buf.FillRects(m.batch, m.batchColors)
}

// paintSprites draws all sprites at their current positions, records them
// as the drawn positions, and adds each rectangle to the damage region.
func (m *Model) paintSprites(buf *framebuffer.Buffer) {
	sz := m.spriteSz()
	m.prevSprites = m.prevSprites[:0]
	for i, s := range m.sprites {
		r := framebuffer.R(s.x, s.y, s.x+sz, s.y+sz)
		buf.Fill(r, hashColor(m.contentSeq, m.salt()+uint64(i)))
		m.damage.Add(r)
		m.prevSprites = append(m.prevSprites, s)
	}
}

// videoRect returns the letterboxed video area.
func (m *Model) videoRect() framebuffer.Rect {
	vh := m.h / 2
	return framebuffer.R(0, (m.h-vh)/2, m.w, (m.h+vh)/2)
}

// pulseRect returns the centered widget region.
func (m *Model) pulseRect() framebuffer.Rect {
	x0 := (m.w - pulseSize) / 2
	y0 := (m.h - pulseSize) / 2
	return framebuffer.R(x0, y0, x0+pulseSize, y0+pulseSize)
}

// paintVideo repaints the letterboxed video area with a band pattern
// derived from the current frame number. The bands go to the buffer as
// one FillRects batch: a tile straddling a band edge is then written once
// per frame with the two colors it shows, instead of gaining both by
// partial fills until its palette overflows to raw.
func (m *Model) paintVideo(buf *framebuffer.Buffer) framebuffer.Rect {
	r := m.videoRect()
	m.batch, m.batchColors = m.batch[:0], m.batchColors[:0]
	for x := r.X0; x < r.X1; x += bandW {
		x1 := x + bandW
		if x1 > r.X1 {
			x1 = r.X1
		}
		m.batch = append(m.batch, framebuffer.R(x, r.Y0, x1, r.Y1))
		m.batchColors = append(m.batchColors, hashColor(m.contentSeq, m.salt()+uint64(x/bandW)))
	}
	buf.FillRects(m.batch, m.batchColors)
	return r
}

// paintPulse repaints the widget region.
func (m *Model) paintPulse(buf *framebuffer.Buffer) framebuffer.Rect {
	r := m.pulseRect()
	buf.Fill(r, hashColor(m.contentSeq, m.salt()))
	return r
}
