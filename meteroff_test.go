package ccdem_test

import (
	"reflect"
	"testing"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/framebuffer"
	"ccdem/internal/input"
	"ccdem/internal/obs"
	"ccdem/internal/power"
	"ccdem/internal/sim"
)

// meterOffStats projects a metered run's Stats onto what a meter-off run
// reports: every field but the meter-derived ones, which read zero.
func meterOffStats(s ccdem.Stats) ccdem.Stats {
	s.ContentRate = 0
	s.RedundantRate = 0
	s.DisplayQuality = 0
	s.DroppedFPS = 0
	return s
}

// TestMeterOffBaselineMatchesMetered is the exactness contract of
// power-only baselines: a GovernorOff device with the meter off (its app
// then draws nothing) reports bit-identical power, energy breakdown,
// frame, refresh, displayed and intended rates and true quality to the
// metered baseline, for every catalog app, on both pixel pipelines and
// for several Monkey scripts. One device alternates the two runs, as a
// campaign's worker lane does.
func TestMeterOffBaselineMatchesMetered(t *testing.T) {
	dur := 3 * sim.Second
	if testing.Short() {
		dur = sim.Second
	}
	var dev *ccdem.Device
	run := func(cfg ccdem.Config, p app.Params, seed int64) ccdem.Stats {
		t.Helper()
		var err error
		if dev == nil {
			dev, err = ccdem.NewDevice(cfg)
		} else {
			err = dev.Reset(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.InstallApp(p); err != nil {
			t.Fatal(err)
		}
		return driveDevice(t, dev, seed, dur)
	}
	for _, naive := range []bool{false, true} {
		for _, p := range app.Catalog() {
			for _, seed := range []int64{3, 11} {
				metered := run(ccdem.Config{Governor: ccdem.GovernorOff, NaivePixels: naive}, p, seed)
				off := run(ccdem.Config{Governor: ccdem.GovernorOff, NaivePixels: naive, MeterSamples: -1}, p, seed)
				if metered.FrameRate == 0 || metered.ContentRate == 0 {
					t.Fatalf("%s: metered baseline saw no frames or content: %+v", p.Name, metered)
				}
				if want := meterOffStats(metered); !reflect.DeepEqual(off, want) {
					t.Errorf("%s (naive=%v, seed %d): meter-off baseline diverged:\nmetered: %+v\noff:     %+v",
						p.Name, naive, seed, want, off)
				}
			}
		}
	}
}

// TestMeterOffDrawsNothing pins the work a meter-off device skips, which
// output comparisons cannot see: it never reaches the meter (no compare
// events, not even on a meter a previous metered run configured) and its
// apps never write their surface buffers. An OLED panel samples
// luminance, so there the apps keep drawing and the baseline stays exact.
func TestMeterOffDrawsNothing(t *testing.T) {
	styles := []string{"Facebook", "Jelly Splash", "MX Player", "Weather"}
	countCompares := func(rec *obs.Recorder) int {
		n := 0
		for _, ev := range rec.Events() {
			if ev.Kind == obs.KindGridCompare || ev.Kind == obs.KindRedundantFrameDropped {
				n++
			}
		}
		return n
	}
	for _, naive := range []bool{false, true} {
		for _, name := range styles {
			// A metered run first leaves a configured meter behind.
			metRec := obs.NewRecorder(0)
			dev, err := ccdem.NewDevice(ccdem.Config{Governor: ccdem.GovernorOff, NaivePixels: naive, Recorder: metRec})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dev.InstallApp(mustApp(t, name)); err != nil {
				t.Fatal(err)
			}
			driveDevice(t, dev, 5, sim.Second)
			if countCompares(metRec) == 0 {
				t.Fatalf("%s: metered run recorded no compares", name)
			}
			metTotal := metRec.Total()

			rec := obs.NewRecorder(0)
			if err := dev.Reset(ccdem.Config{Governor: ccdem.GovernorOff, NaivePixels: naive, MeterSamples: -1, Recorder: rec}); err != nil {
				t.Fatal(err)
			}
			if dev.Meter() != nil {
				t.Fatalf("%s: meter-off device exposes a meter", name)
			}
			m, err := dev.InstallApp(mustApp(t, name))
			if err != nil {
				t.Fatal(err)
			}
			buf := m.Surface().Buffer()
			dev.Run(20 * sim.Millisecond) // the first frame latches
			gen := buf.Gen()
			st := driveDevice(t, dev, 6, 2*sim.Second)
			if st.FrameRate == 0 {
				t.Fatalf("%s: meter-off device latched no frames", name)
			}
			if n := countCompares(rec); n != 0 {
				t.Errorf("%s (naive=%v): meter-off device recorded %d compare events", name, naive, n)
			}
			if metRec.Total() != metTotal {
				t.Errorf("%s (naive=%v): the previous run's meter observed %d frames of a meter-off run",
					name, naive, metRec.Total()-metTotal)
			}
			if got := buf.Gen(); got != gen {
				t.Errorf("%s (naive=%v): surface buffer generation moved %d → %d without a pixel reader", name, naive, gen, got)
			}
		}
	}

	// A fresh buffer is zero; an app that draws nothing leaves it so, on
	// either pipeline (the plain buffer tracks no generation).
	for _, naive := range []bool{false, true} {
		dev, err := ccdem.NewDevice(ccdem.Config{Governor: ccdem.GovernorIdleTimeout, NaivePixels: naive, MeterSamples: -1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := dev.InstallApp(mustApp(t, "MX Player"))
		if err != nil {
			t.Fatal(err)
		}
		driveDevice(t, dev, 7, sim.Second)
		if buf := m.Surface().Buffer(); !buf.Equal(framebuffer.New(buf.Width(), buf.Height())) {
			t.Errorf("naive=%v: meter-off app wrote pixels", naive)
		}
	}

	oled := power.DefaultParams()
	oled.Panel = power.OLEDPanel{BaseMW: 50, PerHzMW: 3.0, MaxEmissionMW: 700}
	var stats [2]ccdem.Stats
	for i, samples := range []int{0, -1} {
		dev, err := ccdem.NewDevice(ccdem.Config{Governor: ccdem.GovernorOff, PowerParams: &oled, MeterSamples: samples})
		if err != nil {
			t.Fatal(err)
		}
		m, err := dev.InstallApp(mustApp(t, "MX Player"))
		if err != nil {
			t.Fatal(err)
		}
		dev.Run(20 * sim.Millisecond)
		gen := m.Surface().Buffer().Gen()
		stats[i] = driveDevice(t, dev, 8, 2*sim.Second)
		if m.Surface().Buffer().Gen() == gen {
			t.Errorf("OLED (samples %d): app stopped drawing although the panel samples luminance", samples)
		}
	}
	if want := meterOffStats(stats[0]); !reflect.DeepEqual(stats[1], want) {
		t.Errorf("OLED meter-off baseline diverged:\nmetered: %+v\noff:     %+v", want, stats[1])
	}
}

// memoTestRuns makes each TestMeterOffLeavesMemoToMeteredRuns run (under
// -count) use a screen size no earlier run memoized.
var memoTestRuns int

// TestMeterOffLeavesMemoToMeteredRuns: a meter-off run stores nothing in
// the app state memo, so a metered run after it on a cold memo fills the
// memo itself (all misses) and reports exactly the Stats of a run that
// never shared the memo. The screen size is unique to this test, which
// keeps the memo cold for it.
func TestMeterOffLeavesMemoToMeteredRuns(t *testing.T) {
	w, h := 368, 656+memoTestRuns
	memoTestRuns++
	feed := mustApp(t, "CGV") // scrolls at 5 fps even untouched
	run := func(dev *ccdem.Device, cfg ccdem.Config) (ccdem.Stats, *app.Model) {
		t.Helper()
		cfg.Width, cfg.Height = w, h
		if err := dev.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		m, err := dev.InstallApp(feed)
		if err != nil {
			t.Fatal(err)
		}
		dev.PlayScript(monkeyScript(t, 21, 4*sim.Second, w, h))
		dev.Run(4 * sim.Second)
		return dev.Stats(), m
	}
	dev, err := ccdem.NewDevice(ccdem.Config{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	// The reference: plain buffers, where feed states bypass the memo.
	ref, _ := run(dev, ccdem.Config{Governor: ccdem.GovernorSectionBoost, NaivePixels: true})

	_, off := run(dev, ccdem.Config{Governor: ccdem.GovernorOff, MeterSamples: -1})
	if hits, misses := off.MemoStats(); hits+misses != 0 {
		t.Errorf("meter-off run used the memo: %d hits, %d misses", hits, misses)
	}
	got, managed := run(dev, ccdem.Config{Governor: ccdem.GovernorSectionBoost})
	hits, misses := managed.MemoStats()
	if hits != 0 || misses == 0 {
		t.Errorf("managed run after a meter-off run: %d memo hits, %d misses; want a cold memo it fills itself", hits, misses)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("managed Stats after a meter-off run diverged:\nref: %+v\ngot: %+v", ref, got)
	}
}

func monkeyScript(t *testing.T, seed int64, dur sim.Time, w, h int) input.Script {
	t.Helper()
	mk, err := input.NewMonkey(seed, input.DefaultMonkeyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return mk.Script(dur, w, h)
}

// TestMeterReadingModesRejectMeterOff: every governor mode that reads
// the content meter refuses a negative MeterSamples, on construction and
// on Reset; the baseline and the content-blind idle timeout accept it.
func TestMeterReadingModesRejectMeterOff(t *testing.T) {
	for _, mode := range []ccdem.GovernorMode{ccdem.GovernorSection, ccdem.GovernorSectionBoost, ccdem.GovernorNaive, ccdem.GovernorE3} {
		if _, err := ccdem.NewDevice(ccdem.Config{Governor: mode, MeterSamples: -1}); err == nil {
			t.Errorf("%v: NewDevice accepted MeterSamples -1", mode)
		}
		dev, err := ccdem.NewDevice(ccdem.Config{Governor: ccdem.GovernorOff})
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Reset(ccdem.Config{Governor: mode, MeterSamples: -1}); err == nil {
			t.Errorf("%v: Reset accepted MeterSamples -1", mode)
		}
	}
	for _, mode := range []ccdem.GovernorMode{ccdem.GovernorOff, ccdem.GovernorIdleTimeout} {
		if _, err := ccdem.NewDevice(ccdem.Config{Governor: mode, MeterSamples: -1}); err != nil {
			t.Errorf("%v: meter off rejected: %v", mode, err)
		}
	}
}
