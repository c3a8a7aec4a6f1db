package ccdem

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/sim"
)

func TestScreenshot(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorOff, Width: 64, Height: 48})
	mustApp(t, d, "Weather")
	d.Run(2 * sim.Second)
	var buf bytes.Buffer
	if err := d.Screenshot(&buf); err != nil {
		t.Fatalf("Screenshot: %v", err)
	}
	img, err := framebuffer.ReadPPM(&buf)
	if err != nil {
		t.Fatalf("ReadPPM: %v", err)
	}
	if img.Width() != 64 || img.Height() != 48 {
		t.Errorf("screenshot dims = %dx%d", img.Width(), img.Height())
	}
	// The app painted something non-black.
	if img.Equal(framebuffer.New(64, 48)) {
		t.Error("screenshot is entirely black")
	}
}

func TestExportTracesCSV(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorSection})
	mustApp(t, d, "Jelly Splash")
	d.Run(3 * sim.Second)
	var buf bytes.Buffer
	if err := d.ExportTracesCSV(&buf, sim.Second); err != nil {
		t.Fatalf("ExportTracesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 buckets
		t.Fatalf("CSV lines = %d, want 4: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "power_mw") || !strings.Contains(lines[0], "refresh rate") {
		t.Errorf("header = %q", lines[0])
	}
	if err := d.ExportTracesCSV(&bytes.Buffer{}, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestExportTracesJSON(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorSection})
	mustApp(t, d, "Jelly Splash")
	d.Run(2 * sim.Second)
	var buf bytes.Buffer
	if err := d.ExportTracesJSON(&buf); err != nil {
		t.Fatalf("ExportTracesJSON: %v", err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != 5 {
		t.Errorf("series = %d, want 5", len(decoded))
	}
}

func TestStatsMarshalJSON(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorSectionBoost})
	mustApp(t, d, "Facebook")
	d.Run(3 * sim.Second)
	raw, err := json.Marshal(d.Stats())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if decoded["mode"] != "section+boost" {
		t.Errorf("mode = %v", decoded["mode"])
	}
	bd, ok := decoded["breakdown_mj"].(map[string]any)
	if !ok {
		t.Fatalf("breakdown missing: %v", decoded)
	}
	for _, k := range []string{"soc", "panel", "render", "meter"} {
		if _, ok := bd[k]; !ok {
			t.Errorf("breakdown missing %q", k)
		}
	}
	if decoded["duration_seconds"].(float64) != 3 {
		t.Errorf("duration = %v", decoded["duration_seconds"])
	}
}

func TestE3ModeDevice(t *testing.T) {
	d := mustDevice(t, Config{Governor: GovernorE3})
	mustApp(t, d, "Jelly Splash")
	d.Run(10 * sim.Second)
	st := d.Stats()
	// E3 throttles frames, not refresh.
	if st.MeanRefreshHz < 59.5 {
		t.Errorf("E3 refresh = %v, want 60", st.MeanRefreshHz)
	}
	if st.FrameRate > 30 {
		t.Errorf("E3 frame rate = %v, want throttled well below 60", st.FrameRate)
	}
	if d.FrameLimiter() == nil {
		t.Error("FrameLimiter accessor nil in E3 mode")
	}
	if _, blocked := d.FrameLimiter().Counters(); blocked == 0 {
		t.Error("E3 never blocked a latch on a 60 fps game")
	}
	if st.DisplayQuality < 0.9 {
		t.Errorf("E3 quality = %v on idle game", st.DisplayQuality)
	}
}
