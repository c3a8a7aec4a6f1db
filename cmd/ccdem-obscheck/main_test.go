package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// traceDoc is a small valid trace: spans from two processes.
const traceDoc = `[
 {"name":"dispatch","ph":"X","pid":1,"tid":1,"ts":0,"dur":5},
 {"name":"run","ph":"X","pid":2,"tid":1,"ts":1,"dur":3},
 {"name":"meta","ph":"M","pid":3}
]`

func TestCheckTrace(t *testing.T) {
	cases := []struct {
		doc     string
		minPids int
		spans   string
		ok      bool
	}{
		{traceDoc, 2, "dispatch,run", true},
		{traceDoc, 3, "", false},                // the M event's pid does not count
		{traceDoc, 0, "dispatch,meta", false},   // nor does its name
		{"[]", 0, "", true},                     // an empty trace with nothing required
		{"null", 0, "", false},                  // not an array
		{"[] []", 0, "", false},                 // a second document
		{traceDoc + "garbage", 2, "run", false}, // trailing bytes
		{`{"traceEvents":[]}`, 0, "", false},    // the object form is not what exporters write
		{`[1]`, 0, "", false},                   // an event that is not an object
	}
	for _, c := range cases {
		err := checkTrace(strings.NewReader(c.doc), c.minPids, c.spans, io.Discard)
		if (err == nil) != c.ok {
			t.Errorf("checkTrace(%.40q, %d, %q) = %v, want ok=%v", c.doc, c.minPids, c.spans, err, c.ok)
		}
	}
}

// FuzzCheckTrace: the trace check never panics, and it accepts only a
// single JSON array whose complete (ph=X) events come from at least
// minPids processes and name every required span.
func FuzzCheckTrace(f *testing.F) {
	f.Add([]byte(traceDoc), 2, "dispatch,run")
	f.Add([]byte(traceDoc), 1, "run,,missing")
	f.Add([]byte("[]"), 0, "")
	f.Add([]byte("null"), 0, "")
	f.Add([]byte("[] x"), 0, "")
	f.Add([]byte(`[{"PH":"X","Pid":7,"NAME":"run"},null]`), 1, "run")
	f.Add([]byte(`[{"ph":"X","pid":1e3}]`), 1, "")
	f.Fuzz(func(t *testing.T, data []byte, minPids int, spans string) {
		if checkTrace(bytes.NewReader(data), minPids, spans, io.Discard) != nil {
			return
		}
		if doc := bytes.TrimLeft(data, " \t\r\n"); !json.Valid(data) || len(doc) == 0 || doc[0] != '[' {
			t.Fatalf("accepted a document that is not one JSON array: %q", data)
		}
		var events []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		}
		if err := json.Unmarshal(data, &events); err != nil {
			t.Fatalf("accepted an array of non-events: %v", err)
		}
		pids := map[int]bool{}
		names := map[string]bool{}
		for _, ev := range events {
			if ev.Ph == "X" {
				pids[ev.PID] = true
				names[ev.Name] = true
			}
		}
		if len(pids) < minPids {
			t.Fatalf("accepted spans from %d processes, want at least %d", len(pids), minPids)
		}
		for _, name := range strings.Split(spans, ",") {
			if name = strings.TrimSpace(name); name != "" && !names[name] {
				t.Fatalf("accepted a trace without required span %q", name)
			}
		}
	})
}
