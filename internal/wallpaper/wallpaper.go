// Package wallpaper models the live-wallpaper workload of the paper's
// metering-accuracy experiment (§4.1, Figure 6). The paper found ordinary
// live wallpapers trivially easy to meter (every frame changes much of the
// screen), so it configured an extreme case — the "Nexus Revampled"
// wallpaper — that continuously moves small dots across the screen. Small
// dots can slip between the sample points of a sparse comparison grid,
// which is exactly the error source Figure 6 quantifies per grid size.
package wallpaper

import (
	"fmt"
	"math/rand"

	"ccdem/internal/framebuffer"
	"ccdem/internal/sim"
	"ccdem/internal/surface"
)

// Config tunes the dot field.
type Config struct {
	// Dots is the number of moving dots. Default 6 — few enough that a
	// sparse grid often misses a frame's changes entirely.
	Dots int
	// DotSize is the square dot edge in pixels. Small relative to the
	// comparison grid stride makes metering hard. Default 5.
	DotSize int
	// Speed is how far each dot moves per content frame (px). Default 3.
	Speed int
	// FPS is the wallpaper's content rate; the paper's accuracy runs use
	// wallpapers below 25 fps. Default 20.
	FPS float64
	// Seed fixes dot placement and motion.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Dots == 0 {
		c.Dots = 6
	}
	if c.DotSize == 0 {
		c.DotSize = 5
	}
	if c.Speed == 0 {
		c.Speed = 3
	}
	if c.FPS == 0 {
		c.FPS = 20
	}
}

// Validate reports configuration errors (after defaulting).
func (c Config) Validate() error {
	if c.Dots < 0 || c.DotSize < 0 || c.Speed < 0 || c.FPS < 0 {
		return fmt.Errorf("wallpaper: negative config value: %+v", c)
	}
	if c.FPS > 60 {
		return fmt.Errorf("wallpaper: FPS %v above the 60 Hz ceiling", c.FPS)
	}
	return nil
}

type dot struct {
	x, y, dx, dy int
}

// Wallpaper is a running dot-field workload bound to a surface.
type Wallpaper struct {
	cfg  Config
	eng  *sim.Engine
	srf  *surface.Surface
	w, h int
	rng  *rand.Rand
	dots []dot
	prev []dot

	seq      uint64
	drawnSeq uint64
	damage   framebuffer.Region

	contentFrames uint64 // latched frames whose pixels actually changed
	ticker        *sim.Ticker
}

// New validates cfg (with defaults applied) and creates an unstarted
// wallpaper.
func New(cfg Config) (*Wallpaper, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Wallpaper{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Attach binds the wallpaper to an engine and surface manager and starts
// its content clock.
func (wp *Wallpaper) Attach(eng *sim.Engine, mgr *surface.Manager) {
	if wp.eng != nil {
		panic("wallpaper: Attach called twice")
	}
	wp.eng = eng
	wp.w = mgr.Framebuffer().Width()
	wp.h = mgr.Framebuffer().Height()
	wp.srf = mgr.NewSurface("wallpaper", 0, wp)
	wp.dots = make([]dot, wp.cfg.Dots)
	for i := range wp.dots {
		wp.dots[i] = dot{
			x:  wp.rng.Intn(wp.w - wp.cfg.DotSize),
			y:  wp.rng.Intn(wp.h - wp.cfg.DotSize),
			dx: wp.cfg.Speed * sgn(wp.rng),
			dy: wp.cfg.Speed * sgn(wp.rng),
		}
	}
	wp.srf.Buffer().FillAll(framebuffer.RGB(8, 8, 16))
	wp.paint(wp.srf.Buffer())
	wp.srf.RequestFrame()
	wp.ticker = eng.Every(eng.Now()+sim.Hz(wp.cfg.FPS), sim.Hz(wp.cfg.FPS), wp.tick)
}

func sgn(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return 1
	}
	return -1
}

// Stop halts the content clock.
func (wp *Wallpaper) Stop() {
	if wp.ticker != nil {
		wp.ticker.Stop()
	}
}

func (wp *Wallpaper) tick() {
	wp.seq++
	for i := range wp.dots {
		d := &wp.dots[i]
		d.x += d.dx
		d.y += d.dy
		if d.x < 0 {
			d.x, d.dx = 0, -d.dx
		}
		if d.x > wp.w-wp.cfg.DotSize {
			d.x, d.dx = wp.w-wp.cfg.DotSize, -d.dx
		}
		if d.y < 0 {
			d.y, d.dy = 0, -d.dy
		}
		if d.y > wp.h-wp.cfg.DotSize {
			d.y, d.dy = wp.h-wp.cfg.DotSize, -d.dy
		}
	}
	wp.srf.RequestFrame()
}

// RenderRegion implements surface.Client: each dot's erase and draw
// rectangle is tracked individually — small disjoint damage is exactly
// what makes this workload hard for the grid meter.
func (wp *Wallpaper) RenderRegion(t sim.Time, buf *framebuffer.Buffer) (*framebuffer.Region, int) {
	wp.damage.Reset()
	if wp.drawnSeq == wp.seq && wp.drawnSeq != 0 {
		return &wp.damage, 0
	}
	wp.paint(buf)
	wp.drawnSeq = wp.seq
	wp.contentFrames++
	return &wp.damage, wp.damage.Area()
}

func (wp *Wallpaper) paint(buf *framebuffer.Buffer) {
	bg := framebuffer.RGB(8, 8, 16)
	for _, d := range wp.prev {
		r := framebuffer.R(d.x, d.y, d.x+wp.cfg.DotSize, d.y+wp.cfg.DotSize)
		buf.Fill(r, bg)
		wp.damage.Add(r)
	}
	wp.prev = wp.prev[:0]
	for i, d := range wp.dots {
		r := framebuffer.R(d.x, d.y, d.x+wp.cfg.DotSize, d.y+wp.cfg.DotSize)
		buf.Fill(r, framebuffer.RGB(200, 220, uint8(40+i*7)))
		wp.damage.Add(r)
		wp.prev = append(wp.prev, d)
	}
}

// ContentFrames returns the ground-truth count of latched frames that
// changed pixels — the denominator of the Figure 6 error rate.
func (wp *Wallpaper) ContentFrames() uint64 { return wp.contentFrames }
