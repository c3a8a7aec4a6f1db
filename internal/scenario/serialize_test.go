package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/sim"
)

func TestScenarioJSONRoundTripCatalog(t *testing.T) {
	sc := Scenario{
		Name: "rt",
		Phases: []Phase{
			{App: mustParams(t, "Facebook"), Duration: 10 * sim.Second, Seed: 3},
			{App: mustParams(t, "Jelly Splash"), Duration: 20 * sim.Second},
		},
	}
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Catalog apps serialize by name, not embedded.
	if !strings.Contains(buf.String(), `"app": "Facebook"`) {
		t.Errorf("catalog app not referenced by name:\n%s", buf.String())
	}
	got, err := ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Error("round trip changed the scenario")
	}
}

func TestScenarioJSONEmbedsCustomWorkload(t *testing.T) {
	custom := app.Params{
		Name: "my-widget", Cat: app.General, Style: app.StylePulse,
		IdleContentFPS: 1, IdleInvalidateFPS: 5,
		TouchContentFPS: 10, TouchInvalidateFPS: 20,
	}
	sc := Scenario{Name: "custom", Phases: []Phase{{App: custom, Duration: 5 * sim.Second}}}
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"workload"`) || !strings.Contains(buf.String(), "my-widget") {
		t.Errorf("custom workload not embedded:\n%s", buf.String())
	}
	got, err := ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Error("round trip changed the custom scenario")
	}
}

func TestReadScenarioValidation(t *testing.T) {
	cases := map[string]string{
		"garbage":     "x",
		"bad version": `{"version":2,"name":"x","phases":[{"app":"Facebook","duration_ms":1000}]}`,
		"no phases":   `{"version":1,"name":"x","phases":[]}`,
		"unknown app": `{"version":1,"name":"x","phases":[{"app":"Nope","duration_ms":1000}]}`,
		"no workload": `{"version":1,"name":"x","phases":[{"duration_ms":1000}]}`,
		"both":        `{"version":1,"name":"x","phases":[{"app":"Facebook","workload":{},"duration_ms":1000}]}`,
		"zero dur":    `{"version":1,"name":"x","phases":[{"app":"Facebook","duration_ms":0}]}`,
		"bad embed":   `{"version":1,"name":"x","phases":[{"workload":{"name":""},"duration_ms":1000}]}`,
		"overflow":    `{"version":1,"name":"x","phases":[{"app":"Facebook","duration_ms":18446744073709552}]}`,
		"underflow":   `{"version":1,"name":"x","phases":[{"app":"Facebook","duration_ms":-18446744073709552}]}`,
	}
	for name, in := range cases {
		if _, err := ReadScenario(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// miniScenario is TestLoadedScenarioRuns' document.
const miniScenario = `{"version":1,"name":"mini","phases":[
	{"app":"Weather","duration_ms":3000,"seed":9},
	{"app":"Tiny Flashlight","duration_ms":3000}
]}`

func TestLoadedScenarioRuns(t *testing.T) {
	sc, err := ReadScenario(strings.NewReader(miniScenario))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ccdem.Config{Governor: ccdem.GovernorSection}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 || res.Total.Duration != 6*sim.Second {
		t.Errorf("result = %+v", res)
	}
}

// FuzzReadScenario checks that no document panics ReadScenario, which
// ccdem-scenario -file runs on a user's file, and that a document it
// accepts reads back equal after WriteJSON.
func FuzzReadScenario(f *testing.F) {
	for _, sc := range []Scenario{
		{Name: "rt", Phases: []Phase{
			{App: mustParams(f, "Facebook"), Duration: 10 * sim.Second, Seed: 3},
			{App: mustParams(f, "Jelly Splash"), Duration: 20 * sim.Second},
		}},
		{Name: "custom", Phases: []Phase{{App: app.Params{
			Name: "my-widget", Cat: app.General, Style: app.StylePulse,
			IdleContentFPS: 1, IdleInvalidateFPS: 5,
			TouchContentFPS: 10, TouchInvalidateFPS: 20,
		}, Duration: 5 * sim.Second}}},
	} {
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(miniScenario))
	f.Fuzz(func(t *testing.T, doc []byte) {
		sc, err := ReadScenario(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted scenario: %v", err)
		}
		got, err := ReadScenario(&buf)
		if err != nil {
			t.Fatalf("reading back an accepted scenario: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(sc, got) {
			t.Fatalf("round trip changed the scenario:\n%+v\n%+v", sc, got)
		}
	})
}
