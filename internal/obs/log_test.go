package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"testing"
)

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hello", "job", "job-0001")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json logger wrote %q: %v", buf.String(), err)
	}
	if rec["msg"] != "hello" || rec["job"] != "job-0001" {
		t.Errorf("record = %v", rec)
	}

	buf.Reset()
	logger, err = NewLogger(&buf, "text")
	if err != nil {
		t.Fatal(err)
	}
	logger.Warn("careful", "shard", 2)
	if !strings.Contains(buf.String(), "msg=careful") || !strings.Contains(buf.String(), "shard=2") {
		t.Errorf("text logger wrote %q", buf.String())
	}

	if _, err := NewLogger(&buf, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	// Must not panic and must not write anywhere observable; mostly a
	// compile-and-run sanity check for the disabled path.
	NopLogger().Error("dropped", "k", "v")
}

func TestRelayJSONLine(t *testing.T) {
	// A worker-side JSON logger produces the line; the daemon-side
	// relay must re-emit it with the shard attr appended.
	var workerOut bytes.Buffer
	worker := slog.New(slog.NewJSONHandler(&workerOut, nil))
	worker.Info("shard worker starting", "devices", 12, "zz", "last", "aa", "first")

	var daemonOut bytes.Buffer
	daemon := slog.New(slog.NewJSONHandler(&daemonOut, nil))
	line := strings.TrimSpace(workerOut.String())
	if !RelayJSONLine(daemon, line, slog.String("job", "job-0001"), slog.Int("shard", 1)) {
		t.Fatalf("valid worker line %q not relayed", line)
	}
	var rec map[string]any
	if err := json.Unmarshal(daemonOut.Bytes(), &rec); err != nil {
		t.Fatalf("relayed record %q: %v", daemonOut.String(), err)
	}
	if rec["msg"] != "shard worker starting" || rec["level"] != "INFO" {
		t.Errorf("relayed record = %v", rec)
	}
	if rec["devices"] != float64(12) || rec["job"] != "job-0001" || rec["shard"] != float64(1) {
		t.Errorf("attrs not preserved/appended: %v", rec)
	}
}

func TestRelayJSONLineRejectsNonRecords(t *testing.T) {
	daemon := NopLogger()
	for _, line := range []string{
		"",
		"plain diagnostic text",
		"{not json",
		`{"no":"msg"}`,
		`{"msg":"x"}`,                // no level
		`{"msg":"x","level":"LOUD"}`, // bad level
		`{"msg":1,"level":"INFO"}`,   // non-string msg
	} {
		if RelayJSONLine(daemon, line) {
			t.Errorf("relayed non-record %q", line)
		}
	}
}

func TestRelayedLevelsSurviveRoundTrip(t *testing.T) {
	var workerOut bytes.Buffer
	worker := slog.New(slog.NewJSONHandler(&workerOut, &slog.HandlerOptions{Level: slog.LevelDebug}))
	worker.Debug("d")
	worker.Info("i")
	worker.Warn("w")
	worker.Error("e")

	var daemonOut bytes.Buffer
	daemon := slog.New(slog.NewJSONHandler(&daemonOut, &slog.HandlerOptions{Level: slog.LevelDebug}))
	for _, line := range strings.Split(strings.TrimSpace(workerOut.String()), "\n") {
		if !RelayJSONLine(daemon, line) {
			t.Fatalf("line %q not relayed", line)
		}
	}
	out := daemonOut.String()
	for _, level := range []string{"DEBUG", "INFO", "WARN", "ERROR"} {
		if !strings.Contains(out, `"level":"`+level+`"`) {
			t.Errorf("level %s lost in relay: %s", level, out)
		}
	}
}

// relayedWorkerLines are worker records as a shard worker logs them: one
// already holding the shard attr the daemon adds, and one holding a
// number past float64's exact range.
var relayedWorkerLines = []string{
	`{"time":"2026-01-02T03:04:05Z","level":"INFO","msg":"shard complete","shard":1,"devices":4,"failed_devices":0,"run_s":0.25}`,
	`{"time":"2026-01-02T03:04:05Z","level":"WARN","msg":"big","n":12345678901234567890,"f":1.50,"nested":{"n":-98765432109876543210}}`,
}

// recordKeys returns the top-level keys of one JSON object in the order
// written, duplicates included (decoding into a map would hide them).
func recordKeys(line string) ([]string, error) {
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, fmt.Errorf("not an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after the record: %v", err)
	}
	return keys, nil
}

// TestRelayJSONLineReplacesWorkerKeys checks that an extra attr replaces
// the worker's attr of the same key: the shard worker logs its shard,
// and the daemon relays every record with the shard attr again.
func TestRelayJSONLineReplacesWorkerKeys(t *testing.T) {
	var out bytes.Buffer
	daemon := slog.New(slog.NewJSONHandler(&out, nil))
	if !RelayJSONLine(daemon, relayedWorkerLines[0], slog.Int("shard", 3)) {
		t.Fatal("worker record not relayed")
	}
	keys, err := recordKeys(out.String())
	if err != nil {
		t.Fatalf("relayed record %q: %v", out.String(), err)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("relayed record repeats key %q: %s", k, out.String())
		}
		seen[k] = true
	}
	if !strings.Contains(out.String(), `"shard":3`) {
		t.Errorf("the daemon's shard attr did not replace the worker's: %s", out.String())
	}
}

// TestRelayJSONLineKeepsNumbers checks that numbers are relayed with
// their exact digits, not rounded through float64.
func TestRelayJSONLineKeepsNumbers(t *testing.T) {
	var out bytes.Buffer
	daemon := slog.New(slog.NewJSONHandler(&out, nil))
	if !RelayJSONLine(daemon, relayedWorkerLines[1]) {
		t.Fatal("worker record not relayed")
	}
	for _, want := range []string{`"n":12345678901234567890`, `"f":1.50`, `"nested":{"n":-98765432109876543210}`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("relayed record lacks %s: %s", want, out.String())
		}
	}
}

// FuzzRelayJSONLine holds the relay to its contract for any line: it
// returns false and logs nothing, or it returns true and logs exactly
// one JSON record, with no key twice, whose msg and level equal the
// input record's (the level compared as a slog.Level, since level names
// parse case-insensitively and with offsets).
func FuzzRelayJSONLine(f *testing.F) {
	for _, line := range relayedWorkerLines {
		f.Add(line)
	}
	f.Add(`{"level":"info","msg":"lower-case level","time":1,"job":"worker's own"}`)
	f.Add(`{"level":"DEBUG-2","msg":"x","a":[1,2,{"b":null}]} `)
	f.Add(`{"level":"INFO","msg":"trailing"} {}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, line string) {
		var out bytes.Buffer
		logger := slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.Level(math.MinInt)}))
		if !RelayJSONLine(logger, line, slog.String("job", "job-0001"), slog.Int("shard", 1)) {
			if out.Len() != 0 {
				t.Fatalf("rejected line %q but logged %q", line, out.String())
			}
			return
		}
		text := out.String()
		if strings.Count(text, "\n") != 1 || !strings.HasSuffix(text, "\n") {
			t.Fatalf("relay of %q logged %q, want one record on one line", line, text)
		}
		keys, err := recordKeys(text)
		if err != nil {
			t.Fatalf("relay of %q logged %q: %v", line, text, err)
		}
		seen := map[string]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("relay of %q logged key %q twice: %s", line, k, text)
			}
			seen[k] = true
		}
		var in, got map[string]any
		if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &in); err != nil {
			t.Fatalf("relayed %q, which does not decode: %v", line, err)
		}
		if err := json.Unmarshal([]byte(text), &got); err != nil {
			t.Fatal(err)
		}
		if got[slog.MessageKey] != in[slog.MessageKey] {
			t.Fatalf("relay of %q logged msg %q", line, got[slog.MessageKey])
		}
		var wantLevel, gotLevel slog.Level
		if err := wantLevel.UnmarshalText([]byte(in[slog.LevelKey].(string))); err != nil {
			t.Fatal(err)
		}
		if err := gotLevel.UnmarshalText([]byte(got[slog.LevelKey].(string))); err != nil || gotLevel != wantLevel {
			t.Fatalf("relay of %q logged level %v (%v), want %v", line, got[slog.LevelKey], err, wantLevel)
		}
	})
}
