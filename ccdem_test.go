package ccdem

import (
	"testing"

	"ccdem/internal/app"
	"ccdem/internal/input"
	"ccdem/internal/power"
	"ccdem/internal/sim"
	"ccdem/internal/wallpaper"
)

func mustDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func mustApp(t *testing.T, d *Device, name string) *app.Model {
	t.Helper()
	p, ok := app.ByName(name)
	if !ok {
		t.Fatalf("app %q not in catalog", name)
	}
	m, err := d.InstallApp(p)
	if err != nil {
		t.Fatalf("InstallApp(%s): %v", name, err)
	}
	return m
}

func script(t *testing.T, seed int64, length sim.Time) input.Script {
	t.Helper()
	mk, err := input.NewMonkey(seed, input.DefaultMonkeyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return mk.Script(length, 720, 1280)
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(Config{Brightness: 2}); err == nil {
		t.Error("brightness 2 accepted")
	}
	if _, err := NewDevice(Config{Width: -1}); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := NewDevice(Config{RefreshLevels: []int{0}}); err == nil {
		t.Error("zero refresh level accepted")
	}
}

func TestGovernorModeString(t *testing.T) {
	if GovernorOff.String() != "baseline" || GovernorSection.String() != "section" ||
		GovernorSectionBoost.String() != "section+boost" {
		t.Error("mode strings wrong")
	}
	if GovernorMode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}

func TestBaselineRunsAtSixtyHz(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorOff})
	mustApp(t, d, "Jelly Splash")
	d.Run(10 * sim.Second)
	st := d.Stats()
	if st.MeanRefreshHz < 59.5 {
		t.Errorf("baseline mean refresh = %v, want 60", st.MeanRefreshHz)
	}
	if st.RefreshSwitches != 0 {
		t.Errorf("baseline switched rates %d times", st.RefreshSwitches)
	}
	// Jelly Splash at 60 Hz: ~60 fps frames, ~10 fps content.
	if st.FrameRate < 55 {
		t.Errorf("frame rate = %v, want ≈60", st.FrameRate)
	}
	if st.ContentRate < 8 || st.ContentRate > 13 {
		t.Errorf("content rate = %v, want ≈10", st.ContentRate)
	}
	if st.DisplayQuality < 0.95 {
		t.Errorf("baseline quality = %v, want ≈1", st.DisplayQuality)
	}
}

func TestSectionGovernorReducesPowerOnRedundantApp(t *testing.T) {
	run := func(mode GovernorMode) Stats {
		d := mustDevice(t, Config{Governor: mode})
		mustApp(t, d, "Jelly Splash")
		d.Run(20 * sim.Second)
		return d.Stats()
	}
	base := run(GovernorOff)
	sect := run(GovernorSection)
	saved := base.MeanPowerMW - sect.MeanPowerMW
	if saved < 100 {
		t.Errorf("section governor saved %v mW on Jelly Splash, want ≫100", saved)
	}
	if sect.MeanRefreshHz > 35 {
		t.Errorf("section mean refresh = %v Hz, want well below 60", sect.MeanRefreshHz)
	}
	// Idle Jelly Splash content ≈10 fps fits under every level, so no
	// quality loss even without boost.
	if sect.DisplayQuality < 0.9 {
		t.Errorf("section quality = %v", sect.DisplayQuality)
	}
}

func TestBoostImprovesQualityUnderInteraction(t *testing.T) {
	sc := script(t, 77, 30*sim.Second)
	run := func(mode GovernorMode) Stats {
		d := mustDevice(t, Config{Governor: mode})
		mustApp(t, d, "Facebook")
		d.PlayScript(sc)
		d.Run(30 * sim.Second)
		return d.Stats()
	}
	sect := run(GovernorSection)
	boost := run(GovernorSectionBoost)
	if boost.DisplayQuality <= sect.DisplayQuality {
		t.Errorf("boost quality %v not above section quality %v",
			boost.DisplayQuality, sect.DisplayQuality)
	}
	if boost.DisplayQuality < 0.9 {
		t.Errorf("boost quality = %v, want ≥0.9", boost.DisplayQuality)
	}
	if boost.BoostCount == 0 {
		t.Error("no boosts recorded despite script interaction")
	}
	// Boosting costs a little power relative to section-only.
	if boost.MeanPowerMW < sect.MeanPowerMW {
		t.Errorf("boost power %v below section power %v — boost should cost a little",
			boost.MeanPowerMW, sect.MeanPowerMW)
	}
}

func TestIdenticalScriptsAreReproducible(t *testing.T) {
	run := func() Stats {
		d := mustDevice(t, Config{Governor: GovernorSectionBoost})
		mustApp(t, d, "Daum Maps")
		d.PlayScript(script(t, 5, 15*sim.Second))
		d.Run(15 * sim.Second)
		return d.Stats()
	}
	a, b := run(), run()
	if a.MeanPowerMW != b.MeanPowerMW || a.FrameRate != b.FrameRate || a.ContentRate != b.ContentRate {
		t.Errorf("paired runs differ: %+v vs %+v", a, b)
	}
}

func TestDeviceTraces(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorSection})
	mustApp(t, d, "Jelly Splash")
	d.Run(5 * sim.Second)
	tr := d.Traces()
	if tr.Content.Len() == 0 || tr.Refresh.Len() == 0 || tr.Frame.Len() == 0 || tr.Intended.Len() == 0 {
		t.Fatal("empty traces")
	}
	if len(tr.Power) == 0 {
		t.Fatal("no power samples")
	}
	// Refresh trace values must be panel levels.
	for _, p := range tr.Refresh.Points {
		ok := false
		for _, l := range d.Panel().Levels() {
			if float64(l) == p.V {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("refresh trace value %v is not a panel level", p.V)
		}
	}
}

func TestInstallWallpaper(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorOff})
	wp, err := d.InstallWallpaper(wallpaper.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(5 * sim.Second)
	if wp.ContentFrames() < 90 {
		t.Errorf("wallpaper content frames = %d, want ≈100", wp.ContentFrames())
	}
	// The default wallpaper is the paper's *hard* metering case: 4 px dots
	// slip past the 9K grid on some frames (the Figure 6 error source), so
	// measured quality sits below 1 even at 60 Hz.
	st := d.Stats()
	if st.DisplayQuality < 0.5 || st.DisplayQuality > 1 {
		t.Errorf("wallpaper quality at 60 Hz = %v, want in (0.5, 1]", st.DisplayQuality)
	}
}

func TestRunIncrements(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorOff})
	mustApp(t, d, "Weather")
	d.Run(2 * sim.Second)
	d.Run(3 * sim.Second)
	if got := d.Stats().Duration; got != 5*sim.Second {
		t.Errorf("duration = %v, want 5s", got)
	}
}

func TestStatsZeroDuration(t *testing.T) {
	d := mustDevice(t, Config{})
	st := d.Stats()
	if st.Duration != 0 || st.MeanPowerMW != 0 {
		t.Errorf("zero-run stats = %+v", st)
	}
}

func TestBaselineChargesNoMeterEnergy(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorOff})
	mustApp(t, d, "Jelly Splash")
	d.Run(5 * sim.Second)
	if e := d.Stats().Breakdown; e[powerMeterComponent()] != 0 {
		t.Errorf("baseline meter energy = %v, want 0", e[powerMeterComponent()])
	}
	dg := mustDevice(t, Config{Governor: GovernorSection})
	mustApp(t, dg, "Jelly Splash")
	dg.Run(5 * sim.Second)
	if e := dg.Stats().Breakdown; e[powerMeterComponent()] == 0 {
		t.Error("governed run charged no meter energy")
	}
}

// TestIdleTimeoutChargesNoMeterEnergy: the idle-timeout policy is
// content-blind, so like the baseline it pays nothing for the read-only
// meter that keeps its statistics comparable. Its power and energy equal
// a meter-off run's bit for bit.
func TestIdleTimeoutChargesNoMeterEnergy(t *testing.T) {
	run := func(samples int) Stats {
		d := mustDevice(t, Config{Governor: GovernorIdleTimeout, MeterSamples: samples})
		mustApp(t, d, "Jelly Splash")
		d.PlayScript(script(t, 1, 60*sim.Second))
		d.Run(60 * sim.Second)
		return d.Stats()
	}
	metered, off := run(0), run(-1)
	if e := metered.Breakdown[powerMeterComponent()]; e != 0 {
		t.Errorf("idle-timeout meter energy = %v mJ, want 0", e)
	}
	if metered.MeanPowerMW != off.MeanPowerMW || metered.EnergyMJ != off.EnergyMJ {
		t.Errorf("metered idle-timeout run %v mW / %v mJ, meter-off run %v mW / %v mJ; want equal",
			metered.MeanPowerMW, metered.EnergyMJ, off.MeanPowerMW, off.EnergyMJ)
	}
}

// TestNaivePixelsInstallReadsNoSnapshot: the oracle pipeline reads no
// palette state. In one process, a NaivePixels device that installs an
// app after tile-pipeline devices have memoized its install screen
// paints its own plain screen instead of aliasing the memo, and its
// surface buffer holds no palette tile after the install and after a
// run.
func TestNaivePixelsInstallReadsNoSnapshot(t *testing.T) {
	const name = "Facebook"
	mustApp(t, mustDevice(t, Config{}), name)
	if buf := mustApp(t, mustDevice(t, Config{}), name).Surface().Buffer(); !buf.Shared() {
		t.Fatalf("a second tile-pipeline install of %s does not alias the memoized screen", name)
	}
	d := mustDevice(t, Config{NaivePixels: true})
	buf := mustApp(t, d, name).Surface().Buffer()
	check := func(when string) {
		t.Helper()
		if buf.Shared() || buf.PaletteTiles() != 0 {
			t.Errorf("%s: naive surface buffer Shared() = %v, PaletteTiles() = %d; want false, 0",
				when, buf.Shared(), buf.PaletteTiles())
		}
	}
	check("after install")
	d.PlayScript(script(t, 1, 5*sim.Second))
	d.Run(5 * sim.Second)
	check("after a run")
}

// powerMeterComponent avoids importing power in half the test file's call
// sites; it just names the meter component.
func powerMeterComponent() power.Component { return power.MeterOver }
