package svc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeJobSpecRejects pins what the one job-document decoder refuses
// on every path that reads it (HTTP, journal recovery, shard worker).
func TestDecodeJobSpecRejects(t *testing.T) {
	good, err := json.Marshal(JobSpec{Spec: testSpecDoc(t, 4), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJobSpec(bytes.NewReader(good)); err != nil {
		t.Fatalf("well-formed document rejected: %v", err)
	}
	for name, doc := range map[string]string{
		"empty":            "",
		"malformed":        `{"spec": nope`,
		"unknown field":    `{"spec": {}, "bogus": 1}`,
		"trailing object":  string(good) + ` {}`,
		"trailing garbage": string(good) + ` x`,
		"second document":  string(good) + string(good),
	} {
		if _, err := DecodeJobSpec(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %q", name, doc)
		}
	}
}

// FuzzDecodeJobSpec holds DecodeJobSpec to the round trip its callers
// rely on: every accepted document re-encodes, and the encoding decodes
// to a DeepEqual spec — the daemon journals and ships to workers the
// re-encoded form of what it accepted.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add([]byte(`{"spec": {"version": 1, "devices": 4}, "shards": 2, "workers": 1, "label": "a<b"}`))
	f.Add([]byte(`{"spec": null, "faults": 0.5, "hardened": true, "task_timeout_s": 3}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"spec": {}} {}`))
	f.Add([]byte(`{"SPEC": [1, 2.50, "<"], "batch": 8}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		spec, err := DecodeJobSpec(bytes.NewReader(doc))
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := DecodeJobSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("spec changed across encode/decode:\n got %+v\nwant %+v", back, spec)
		}
	})
}
