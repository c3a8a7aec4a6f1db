package scenario

import (
	"reflect"
	"strings"
	"testing"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/sim"
)

func mustParams(t testing.TB, name string) app.Params {
	t.Helper()
	p, ok := app.ByName(name)
	if !ok {
		t.Fatalf("%s not in catalog", name)
	}
	return p
}

func TestScenarioValidation(t *testing.T) {
	if err := (Scenario{Name: "empty"}).Validate(); err == nil {
		t.Error("empty scenario accepted")
	}
	bad := Scenario{Name: "bad", Phases: []Phase{{Duration: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-duration phase accepted")
	}
	if _, err := Run(ccdem.Config{}, Scenario{Name: "x"}); err == nil {
		t.Error("Run accepted invalid scenario")
	}
}

func TestScenarioRunPhases(t *testing.T) {
	sc := Scenario{
		Name: "game-then-chat",
		Phases: []Phase{
			{App: mustParams(t, "Jelly Splash"), Duration: 10 * sim.Second, Seed: 4},
			{App: mustParams(t, "KakaoTalk"), Duration: 10 * sim.Second, Seed: 5},
		},
	}
	res, err := Run(ccdem.Config{Governor: ccdem.GovernorSectionBoost}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	if res.Total.Duration != 20*sim.Second {
		t.Errorf("total duration = %v", res.Total.Duration)
	}
	// The game phase burns more power and runs at higher refresh than the
	// messenger phase.
	game, chat := res.Phases[0], res.Phases[1]
	if game.MeanPowerMW <= chat.MeanPowerMW {
		t.Errorf("game %v mW not above chat %v mW", game.MeanPowerMW, chat.MeanPowerMW)
	}
	if game.MeanRefreshHz <= chat.MeanRefreshHz {
		t.Errorf("game %v Hz not above chat %v Hz", game.MeanRefreshHz, chat.MeanRefreshHz)
	}
	// Energy accounting is consistent: phase energies sum to the total.
	sum := 0.0
	for _, ph := range res.Phases {
		sum += ph.MeanPowerMW * ph.Duration.Seconds()
	}
	if diff := sum - res.Total.EnergyMJ; diff > 1 || diff < -1 {
		t.Errorf("phase energy sum %v != total %v", sum, res.Total.EnergyMJ)
	}
	if !strings.Contains(res.String(), "KakaoTalk") {
		t.Error("rendering missing phase app")
	}
}

func TestScenarioRevisitResumesApp(t *testing.T) {
	jelly := mustParams(t, "Jelly Splash")
	kakao := mustParams(t, "KakaoTalk")
	sc := Scenario{
		Name: "revisit",
		Phases: []Phase{
			{App: jelly, Duration: 5 * sim.Second},
			{App: kakao, Duration: 5 * sim.Second},
			{App: jelly, Duration: 5 * sim.Second},
		},
	}
	res, err := Run(ccdem.Config{Governor: ccdem.GovernorSection}, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 3 resumed the same game instance: its power returns to
	// game-like levels (the 60 fps loop restarts).
	if res.Phases[2].MeanPowerMW <= res.Phases[1].MeanPowerMW {
		t.Errorf("resumed game %v mW not above messenger %v mW",
			res.Phases[2].MeanPowerMW, res.Phases[1].MeanPowerMW)
	}
}

func TestScenarioHandsOffPhase(t *testing.T) {
	sc := Scenario{
		Name: "video-night",
		Phases: []Phase{
			{App: mustParams(t, "MX Player"), Duration: 10 * sim.Second}, // no seed: hands-off
		},
	}
	res, err := Run(ccdem.Config{Governor: ccdem.GovernorSection}, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Hands-off video settles at 30 Hz.
	if hz := res.Phases[0].MeanRefreshHz; hz < 28 || hz > 40 {
		t.Errorf("video refresh = %v, want ≈30", hz)
	}
}

// TestScenarioTileVsNaivePixels pins the multi-surface compose path
// against the brute-force oracle. A scenario installs one app per phase,
// so from the second phase on the device holds several surfaces and the
// compositor blits them into the framebuffer instead of scanning one out.
// The production pipeline and NaivePixels must give identical results,
// with and without the governor.
func TestScenarioTileVsNaivePixels(t *testing.T) {
	kakao := mustParams(t, "KakaoTalk")
	sc := Scenario{
		Name: "app switching",
		Phases: []Phase{
			{App: kakao, Duration: 20 * sim.Second, Seed: 1},
			{App: mustParams(t, "Jelly Splash"), Duration: 20 * sim.Second, Seed: 2},
			{App: mustParams(t, "MX Player"), Duration: 20 * sim.Second},
			{App: kakao, Duration: 10 * sim.Second, Seed: 3},
		},
	}
	for _, gov := range []ccdem.GovernorMode{ccdem.GovernorOff, ccdem.GovernorSectionBoost} {
		var res [2]*Result
		for i, naive := range []bool{false, true} {
			r, err := Run(ccdem.Config{Governor: gov, NaivePixels: naive}, sc)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("governor %v: result differs from NaivePixels:\ntiles: %+v\nnaive: %+v", gov, res[0], res[1])
		}
	}
}
