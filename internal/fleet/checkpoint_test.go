package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ccdem/internal/sim"
)

// ckptTestCohort is a small deterministic cohort used across the
// checkpoint tests.
func ckptTestCohort(devices int) Cohort {
	return Cohort{
		Devices:      devices,
		Seed:         7,
		Session:      2 * sim.Second,
		MeterSamples: 256,
	}
}

// runTestShards runs every shard of a count-way split of the cohort.
func runTestShards(t testing.TB, c Cohort, count int) []*Shard {
	t.Helper()
	shards := make([]*Shard, count)
	for i := 0; i < count; i++ {
		sc := c
		sc.ShardIndex, sc.ShardCount = i, count
		s, err := sc.RunShard(context.Background(), Pool{Workers: 2})
		if err != nil {
			t.Fatalf("RunShard %d/%d: %v", i, count, err)
		}
		shards[i] = s
	}
	return shards
}

func encodeCheckpoint(t testing.TB, c *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTrip: encode → decode reconstructs state that
// encodes to the same bytes, with the done set and identity pins intact.
func TestCheckpointRoundTrip(t *testing.T) {
	shards := runTestShards(t, ckptTestCohort(20), 4)
	c := NewCheckpoint("hash-abc", "v-test", 4)
	// Out-of-order completion, partial set — the realistic mid-crash shape.
	for _, i := range []int{2, 0, 3} {
		if err := c.AddShard(shards[i]); err != nil {
			t.Fatalf("AddShard %d: %v", i, err)
		}
	}
	doc := encodeCheckpoint(t, c)

	got, err := DecodeCheckpoint(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if got.SpecHash != "hash-abc" || got.CodeVersion != "v-test" {
		t.Errorf("identity = (%q, %q), want (hash-abc, v-test)", got.SpecHash, got.CodeVersion)
	}
	if got.ShardCount != 4 || got.DoneCount() != 3 || got.Complete() {
		t.Errorf("shape = %d shards, %d done, complete=%v", got.ShardCount, got.DoneCount(), got.Complete())
	}
	for _, i := range []int{0, 2, 3} {
		if !got.Done(i) {
			t.Errorf("shard %d not marked done", i)
		}
	}
	if got.Done(1) {
		t.Error("shard 1 marked done")
	}
	if doc2 := encodeCheckpoint(t, got); !bytes.Equal(doc, doc2) {
		t.Errorf("re-encoded checkpoint differs:\n got: %s\nwant: %s", doc2, doc)
	}
}

// TestCheckpointResultMatchesMergeShards: folding shards into a
// checkpoint in arbitrary order — with a serialization round-trip in the
// middle, like a real crash/resume — must finalize to bytes identical to
// the canonical in-order MergeShards of the same campaign.
func TestCheckpointResultMatchesMergeShards(t *testing.T) {
	cohort := ckptTestCohort(22)
	count := 4

	var want bytes.Buffer
	ref, err := MergeShards(runTestShards(t, cohort, count))
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if err := ref.WriteJSON(&want, false); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	shards := runTestShards(t, cohort, count)
	c := NewCheckpoint("h", "v", count)
	for _, i := range []int{3, 1} {
		if err := c.AddShard(shards[i]); err != nil {
			t.Fatalf("AddShard %d: %v", i, err)
		}
	}
	// Crash: the surviving state is only what the document carries.
	resumed, err := DecodeCheckpoint(bytes.NewReader(encodeCheckpoint(t, c)))
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	for _, i := range []int{0, 2} {
		if err := resumed.AddShard(shards[i]); err != nil {
			t.Fatalf("AddShard %d after resume: %v", i, err)
		}
	}
	result, err := resumed.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var got bytes.Buffer
	if err := result.WriteJSON(&got, false); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("resumed checkpoint result differs from in-order merge:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
}

func TestCheckpointAddShardRejectsInconsistency(t *testing.T) {
	shards := runTestShards(t, ckptTestCohort(12), 3)
	other := runTestShards(t, ckptTestCohort(15), 3)

	c := NewCheckpoint("h", "v", 3)
	if err := c.AddShard(shards[1]); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if err := c.AddShard(shards[1]); err == nil || !strings.Contains(err.Error(), "duplicate shard") {
		t.Errorf("duplicate AddShard = %v, want duplicate-shard error", err)
	}
	if err := c.AddShard(other[2]); err == nil || !strings.Contains(err.Error(), "cohort") {
		t.Errorf("mismatched-cohort AddShard = %v, want cohort-size error", err)
	}
	wrongCount := NewCheckpoint("h", "v", 4)
	if err := wrongCount.AddShard(shards[0]); err == nil || !strings.Contains(err.Error(), "campaign") {
		t.Errorf("wrong-count AddShard = %v, want shard-count error", err)
	}
	if _, err := c.Result(); err == nil || !strings.Contains(err.Error(), "shards complete") {
		t.Errorf("Result on incomplete checkpoint = %v, want incomplete error", err)
	}
}

// TestCheckpointDecodeRejectsCorruption: every corruption class the
// resume path defends against must be rejected whole.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	shards := runTestShards(t, ckptTestCohort(20), 4)
	c := NewCheckpoint("hash-abc", "v-test", 4)
	for _, i := range []int{0, 1} {
		if err := c.AddShard(shards[i]); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
	}
	doc := encodeCheckpoint(t, c)
	for _, tc := range checkpointCorruptions(doc) {
		t.Run(tc.name, func(t *testing.T) {
			if bytes.Equal(tc.doc, doc) {
				t.Fatal("corruption left the document unchanged")
			}
			_, err := DecodeCheckpoint(bytes.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeCheckpoint = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// corruptCheckpoint is a damaged checkpoint document and the error it
// must raise.
type corruptCheckpoint struct {
	name, want string
	doc        []byte
}

// checkpointCorruptions derives the envelope-level corruption classes
// the resume path defends against from a valid checkpoint document.
func checkpointCorruptions(doc []byte) []corruptCheckpoint {
	flip := func(needle, repl string) []byte {
		return []byte(strings.Replace(string(doc), needle, repl, 1))
	}
	return []corruptCheckpoint{
		{"truncated", "unexpected", doc[:len(doc)/2]},
		{"empty", "EOF", nil},
		// A flipped payload byte must trip the CRC before any field is
		// trusted. (Same-length replacement keeps the JSON well-formed.)
		{"bit rot", "checksum", flip(`"spec_hash":"hash-abc"`, `"spec_hash":"hash-abd"`)},
		{"version skew", "unsupported version", flip(`"version":1`, `"version":9`)},
		{"unknown envelope field", "unknown field", flip(`"version":1`, `"varsion":1`)},
	}
}

// payloadEdits are semantic corruptions of the payload of a 4-shard
// checkpoint holding shards 0 and 1, each naming the error it must
// raise once resealed behind a valid checksum.
var payloadEdits = []struct{ name, old, new, want string }{
	{"done out of range", `"done":[0,1]`, `"done":[0,7]`, "out of [0,4)"},
	{"done unsorted", `"done":[0,1]`, `"done":[1,0]`, "ascending"},
	// Claiming an extra completed shard breaks the device accounting:
	// the accumulator only holds shards 0 and 1.
	{"accounting mismatch", `"done":[0,1]`, `"done":[0,1,2]`, "account"},
	{"empty spec hash", `"spec_hash":"hash-abc"`, `"spec_hash":""`, "empty spec hash"},
	{"empty code version", `"code_version":"v-test"`, `"code_version":""`, "empty code version"},
	{"zero shards", `"shards":4`, `"shards":0`, "non-positive shard count"},
}

// unseal returns a checkpoint document's payload bytes.
func unseal(t testing.TB, doc []byte) []byte {
	t.Helper()
	var env wireCheckpointEnvelope
	if err := json.Unmarshal(doc, &env); err != nil {
		t.Fatalf("unsealing: %v", err)
	}
	return env.Payload
}

// seal wraps payload bytes verbatim in a version-1 envelope with a valid
// checksum, so they reach the semantic validators behind it.
func seal(payload []byte) []byte {
	return fmt.Appendf(nil, `{"version":%d,"crc32":%q,"payload":%s}`, checkpointWireVersion, crcHex(payload), payload)
}

func TestCheckpointDecodeRejectsInconsistentPayload(t *testing.T) {
	shards := runTestShards(t, ckptTestCohort(20), 4)
	c := NewCheckpoint("hash-abc", "v-test", 4)
	for _, i := range []int{0, 1} {
		if err := c.AddShard(shards[i]); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
	}
	payload := string(unseal(t, encodeCheckpoint(t, c)))
	for _, tc := range payloadEdits {
		t.Run(tc.name, func(t *testing.T) {
			edited := strings.Replace(payload, tc.old, tc.new, 1)
			if edited == payload {
				t.Fatalf("%q not found in the checkpoint payload", tc.old)
			}
			_, err := DecodeCheckpoint(bytes.NewReader(seal([]byte(edited))))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeCheckpoint = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckpointEmptyRoundTrip(t *testing.T) {
	c := NewCheckpoint("h", "v", 3)
	got, err := DecodeCheckpoint(bytes.NewReader(encodeCheckpoint(t, c)))
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if got.DoneCount() != 0 || got.ShardCount != 3 || got.Acc.Devices() != 0 {
		t.Errorf("empty checkpoint decoded to %d done, %d shards, %d devices",
			got.DoneCount(), got.ShardCount, got.Acc.Devices())
	}
}

// FuzzDecodeCheckpoint: the checkpoint decoder never panics, and every
// checkpoint it accepts re-encodes to a document it accepts again, with
// the same done set, the same failures, the same bytes and — when
// complete — the same Result. With sealed set the fuzzed bytes are the
// payload of a correctly checksummed envelope, because random envelopes
// never get past the CRC; otherwise they are the whole document.
func FuzzDecodeCheckpoint(f *testing.F) {
	cohort := ckptTestCohort(20)
	cohort.testHook = func(device int) {
		if device == 6 {
			panic("seeded failure")
		}
	}
	shards := runTestShards(f, cohort, 4)
	c := NewCheckpoint("hash-abc", "v-test", 4)
	// partial holds shards 0 and 1, the state payloadEdits expect.
	var partial []byte
	for k, i := range []int{1, 0, 3, 2} {
		if err := c.AddShard(shards[i]); err != nil {
			f.Fatal(err)
		}
		f.Add(unseal(f, encodeCheckpoint(f, c)), true)
		if k == 1 {
			partial = encodeCheckpoint(f, c)
		}
	}
	f.Add(unseal(f, encodeCheckpoint(f, NewCheckpoint("h", "v", 3))), true)
	for _, tc := range checkpointCorruptions(partial) {
		f.Add(tc.doc, false)
	}
	payload := string(unseal(f, partial))
	for _, tc := range payloadEdits {
		f.Add([]byte(strings.Replace(payload, tc.old, tc.new, 1)), true)
	}

	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		doc := data
		if sealed {
			doc = seal(data)
		}
		c, err := DecodeCheckpoint(bytes.NewReader(doc))
		if err != nil {
			return
		}
		enc := encodeCheckpoint(t, c)
		back, err := DecodeCheckpoint(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back.DoneShards(), c.DoneShards()) {
			t.Fatalf("done set %v, re-decoded %v", c.DoneShards(), back.DoneShards())
		}
		if len(back.Failed)+len(c.Failed) > 0 && !reflect.DeepEqual(back.Failed, c.Failed) {
			t.Fatalf("failures %+v, re-decoded %+v", c.Failed, back.Failed)
		}
		if again := encodeCheckpoint(t, back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not canonical:\n%s\nvs\n%s", enc, again)
		}
		if !c.Complete() {
			return
		}
		want, wantErr := c.Result()
		got, gotErr := back.Result()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("Result error %v, re-decoded %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		var wj, gj bytes.Buffer
		if err := want.WriteJSON(&wj, true); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(&gj, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj.Bytes(), gj.Bytes()) {
			t.Fatalf("Result differs after the round trip:\n%s\nvs\n%s", wj.Bytes(), gj.Bytes())
		}
	})
}
