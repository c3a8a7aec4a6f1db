package ccdem_test

import (
	"reflect"
	"testing"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/input"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
)

// resetRunConfigs is a spread of device configurations that exercise the
// reuse paths: same screen and grid (buffers and lattices recycled), the
// pixel-pipeline switch in both directions on recycled buffers, a
// meter-off run between metered ones, a different metering grid
// (lattices rebuilt), different screen dimensions (everything pixel-sized
// rebuilt), and governor changes.
func resetRunConfigs() []ccdem.Config {
	return []ccdem.Config{
		{Governor: ccdem.GovernorSectionBoost},
		{Governor: ccdem.GovernorSectionBoost, NaivePixels: true},
		{Governor: ccdem.GovernorSection},
		{Governor: ccdem.GovernorOff, MeterSamples: -1},
		{Governor: ccdem.GovernorSectionBoost, MeterSamples: 1024},
		{Governor: ccdem.GovernorNaive, Width: 480, Height: 800},
		{Governor: ccdem.GovernorOff},
	}
}

// driveDevice replays a deterministic script on the device (app already
// installed) and returns the run's stats.
func driveDevice(t *testing.T, dev *ccdem.Device, seed int64, dur sim.Time) ccdem.Stats {
	t.Helper()
	mk, err := input.NewMonkey(seed, input.DefaultMonkeyConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, h := 720, 1280
	dev.PlayScript(mk.Script(dur, w, h))
	dev.Run(dur)
	dev.FinishObs()
	return dev.Stats()
}

// TestDeviceResetMatchesFresh is the reuse contract of the fleet engine:
// a Reset device must be indistinguishable from a freshly constructed one
// — identical statistics AND an identical decision-event stream — for
// every transition between the configurations above, including screen and
// grid geometry changes. The device is deliberately left mid-state (run
// history, installed apps, recorded traces) before each Reset.
func TestDeviceResetMatchesFresh(t *testing.T) {
	apps := []string{"Jelly Splash", "KakaoTalk", "Facebook", "Naver", "KakaoTalk", "MX Player", "Naver"}
	cfgs := resetRunConfigs()

	type outcome struct {
		stats  ccdem.Stats
		events []obs.Event
	}
	run := func(dev *ccdem.Device, step int) outcome {
		st := driveDevice(t, dev, int64(100+step), 5*sim.Second)
		return outcome{stats: st}
	}

	// Reference: a fresh device per step.
	fresh := make([]outcome, len(cfgs))
	freshEvents := make([][]obs.Event, len(cfgs))
	for i, cfg := range cfgs {
		rec := obs.NewRecorder(0)
		cfg.Recorder = rec
		dev, err := ccdem.NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.InstallApp(mustApp(t, apps[i])); err != nil {
			t.Fatal(err)
		}
		fresh[i] = run(dev, i)
		freshEvents[i] = rec.Events()
	}

	// One device reused across every step.
	var dev *ccdem.Device
	for i, cfg := range cfgs {
		rec := obs.NewRecorder(0)
		cfg.Recorder = rec
		var err error
		if dev == nil {
			dev, err = ccdem.NewDevice(cfg)
		} else {
			err = dev.Reset(cfg)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := dev.InstallApp(mustApp(t, apps[i])); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got := run(dev, i)
		if !reflect.DeepEqual(got.stats, fresh[i].stats) {
			t.Errorf("step %d (%s): reset device stats diverged:\nfresh: %+v\nreset: %+v",
				i, apps[i], fresh[i].stats, got.stats)
		}
		gotEvents := rec.Events()
		if !reflect.DeepEqual(gotEvents, freshEvents[i]) {
			t.Errorf("step %d (%s): reset device recorded %d events, fresh %d — decision streams must be bit-identical",
				i, apps[i], len(gotEvents), len(freshEvents[i]))
		}
	}
}

// TestDeviceResetRejectsBadConfig: a failed Reset reports the error and
// leaves the device explicitly unusable rather than half-configured.
func TestDeviceResetRejectsBadConfig(t *testing.T) {
	dev, err := ccdem.NewDevice(ccdem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Reset(ccdem.Config{Width: -1}); err == nil {
		t.Fatal("Reset accepted a negative width")
	}
	if err := dev.Reset(ccdem.Config{Brightness: 7}); err == nil {
		t.Fatal("Reset accepted an out-of-range brightness")
	}
}

func mustApp(t *testing.T, name string) app.Params {
	t.Helper()
	p, ok := app.ByName(name)
	if !ok {
		t.Fatalf("app %q not in catalog", name)
	}
	return p
}
