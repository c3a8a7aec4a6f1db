// Campaign checkpoint codec: a versioned, CRC-guarded snapshot of a
// partially merged campaign, so a daemon killed mid-flight can resume a
// sharded run and still produce the exact bytes an uninterrupted run
// would have.
//
// The checkpoint rides on the shard wire codec's determinism argument:
// the accumulator's whole state is integral (codec.go, stream.go), so
// merging completed shards in *any* order — including "the order they
// happened to finish before the crash, then the re-run stragglers after
// the restart" — reaches the same integer state as the canonical
// in-shard-order merge. A checkpoint therefore only needs the merged
// accumulator over the completed-shard set, the set itself, and the
// cross-shard invariants (cohort size, profile order) needed to finalize
// and to validate late shards.
//
// The document is defensive by design: the payload carries a CRC-32 so a
// torn or bit-rotted file is detected before any of it is trusted, a
// spec hash and code version so a checkpoint is never resumed against a
// different campaign or a binary with different simulation semantics,
// and the same accounting invariants DecodeShard enforces — the
// completed shards' exact slice sizes must equal the accumulator's
// devices plus the failure rows. A checkpoint that fails any of these
// is rejected whole; resuming from a suspect prefix is never worth the
// corrupted campaign it would produce.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// checkpointWireVersion tags the checkpoint envelope; decoders reject
// anything else (a version-skewed checkpoint restarts the job from
// scratch rather than guessing at field semantics).
const checkpointWireVersion = 1

// Checkpoint accumulates a sharded campaign's completed shards into a
// resumable snapshot: which shards are done, the accumulator merged over
// exactly those shards, and the failure rows from their slices. It is
// not safe for concurrent use; the service serializes AddShard and
// Encode behind one mutex.
type Checkpoint struct {
	// SpecHash pins the checkpoint to one job document (the service
	// hashes the journaled spec bytes); a mismatch refuses resume.
	SpecHash string
	// CodeVersion pins the checkpoint to the binary that wrote it;
	// simulation semantics may change between versions, so a skewed
	// checkpoint restarts from scratch.
	CodeVersion string
	// ShardCount is the campaign's shard count.
	ShardCount int
	// CohortDevices is the campaign's cohort size, adopted from the
	// first completed shard (0 until then).
	CohortDevices int
	// ProfileOrder is the cohort's profile declaration order, adopted
	// from the first completed shard.
	ProfileOrder []string
	// Failed holds the completed shards' failure rows.
	Failed []DeviceFailure
	// Acc is the accumulator merged over the completed shards.
	Acc *Accumulator

	done map[int]bool
}

// NewCheckpoint returns an empty checkpoint for a shards-way campaign.
func NewCheckpoint(specHash, codeVersion string, shards int) *Checkpoint {
	return &Checkpoint{
		SpecHash:    specHash,
		CodeVersion: codeVersion,
		ShardCount:  shards,
		Acc:         NewAccumulator(),
		done:        make(map[int]bool),
	}
}

// Done reports whether shard index has been folded in.
func (c *Checkpoint) Done(index int) bool { return c.done[index] }

// DoneCount is the number of completed shards.
func (c *Checkpoint) DoneCount() int { return len(c.done) }

// DoneShards returns the completed shard indices in ascending order.
func (c *Checkpoint) DoneShards() []int {
	out := make([]int, 0, len(c.done))
	for i := range c.done {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Complete reports whether every shard has been folded in.
func (c *Checkpoint) Complete() bool { return len(c.done) == c.ShardCount }

// AddShard folds one completed shard into the checkpoint, enforcing
// cross-shard consistency: same shard count, same cohort size, same
// profile order, no duplicate indices. The shard's accumulator must not
// be used afterwards.
func (c *Checkpoint) AddShard(s *Shard) error {
	if s.Count != c.ShardCount {
		return fmt.Errorf("fleet: checkpoint: shard %d/%d against a %d-shard campaign", s.Index, s.Count, c.ShardCount)
	}
	if s.Index < 0 || s.Index >= c.ShardCount {
		return fmt.Errorf("fleet: checkpoint: shard index %d out of [0,%d)", s.Index, c.ShardCount)
	}
	if c.done[s.Index] {
		return fmt.Errorf("fleet: checkpoint: duplicate shard %d", s.Index)
	}
	if len(c.done) == 0 && c.CohortDevices == 0 {
		c.CohortDevices = s.CohortDevices
		c.ProfileOrder = append([]string(nil), s.ProfileOrder...)
	} else {
		if s.CohortDevices != c.CohortDevices {
			return fmt.Errorf("fleet: checkpoint: shard %d covers a %d-device cohort, checkpoint holds %d",
				s.Index, s.CohortDevices, c.CohortDevices)
		}
		if len(s.ProfileOrder) != len(c.ProfileOrder) {
			return fmt.Errorf("fleet: checkpoint: shard %d profile order differs", s.Index)
		}
		for i, name := range s.ProfileOrder {
			if name != c.ProfileOrder[i] {
				return fmt.Errorf("fleet: checkpoint: shard %d profile order differs at %q", s.Index, name)
			}
		}
	}
	c.Acc.Merge(s.Acc)
	c.Failed = append(c.Failed, s.Failed...)
	c.done[s.Index] = true
	return nil
}

// Result finalizes a complete checkpoint into the campaign result. It is
// the one finishing tail: MergeShards is AddShard over a whole shard set
// then Result, so a campaign assembled through any interleaving of
// AddShard calls (including across a crash and resume) is byte-identical
// to the uninterrupted merge. The checkpoint must not be used
// afterwards.
func (c *Checkpoint) Result() (*Result, error) {
	if !c.Complete() {
		return nil, fmt.Errorf("fleet: checkpoint: %d of %d shards complete", len(c.done), c.ShardCount)
	}
	if c.Acc.Devices() == 0 {
		return nil, fmt.Errorf("fleet: all %d devices failed", c.CohortDevices)
	}
	res := &Result{Failed: append([]DeviceFailure(nil), c.Failed...)}
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Device < res.Failed[j].Device })
	profiles := make([]Profile, len(c.ProfileOrder))
	for i, name := range c.ProfileOrder {
		profiles[i] = Profile{Name: name}
	}
	res.Aggregate = c.Acc.Aggregate(profiles)
	res.Aggregate.FailedDevices = len(res.Failed)
	return res, nil
}

// wireCheckpoint is the checkpoint payload: identity pins, the
// completed-shard set, and the merged accumulator in its canonical wire
// form. Done and Failed are emitted in ascending order so identical
// checkpoint state always encodes to identical bytes.
type wireCheckpoint struct {
	SpecHash      string          `json:"spec_hash"`
	CodeVersion   string          `json:"code_version"`
	Shards        int             `json:"shards"`
	CohortDevices int             `json:"cohort_devices,omitempty"`
	ProfileOrder  []string        `json:"profile_order,omitempty"`
	Done          []int           `json:"done,omitempty"`
	Failed        []DeviceFailure `json:"failed,omitempty"`
	Accumulator   wireAccumulator `json:"accumulator"`
}

// wireCheckpointEnvelope wraps the payload with a version tag and a
// CRC-32 (IEEE) over the payload's exact bytes. json.RawMessage keeps
// the bytes verbatim in both directions, so the checksum covers what is
// actually on disk.
type wireCheckpointEnvelope struct {
	Version int             `json:"version"`
	CRC32   string          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// crcHex is the envelope's checksum encoding: CRC-32 (IEEE) over the
// payload's exact bytes, as 8 lowercase hex digits.
func crcHex(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))
}

// Encode writes the checkpoint's canonical wire document.
func (c *Checkpoint) Encode(w io.Writer) error {
	failed := append([]DeviceFailure(nil), c.Failed...)
	sort.Slice(failed, func(i, j int) bool { return failed[i].Device < failed[j].Device })
	payload := wireCheckpoint{
		SpecHash:      c.SpecHash,
		CodeVersion:   c.CodeVersion,
		Shards:        c.ShardCount,
		CohortDevices: c.CohortDevices,
		ProfileOrder:  c.ProfileOrder,
		Done:          c.DoneShards(),
		Failed:        failed,
		Accumulator:   c.Acc.toWire(),
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	env := wireCheckpointEnvelope{
		Version: checkpointWireVersion,
		CRC32:   crcHex(raw),
		Payload: raw,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(env)
}

// DecodeCheckpoint parses and validates a checkpoint document. Every
// rejection is total: a checkpoint that is truncated, checksum-damaged,
// version-skewed, or internally inconsistent yields an error and no
// state — the caller restarts the campaign from scratch rather than
// merging a suspect prefix.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var env wireCheckpointEnvelope
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint codec: %w", err)
	}
	if env.Version != checkpointWireVersion {
		return nil, fmt.Errorf("fleet: checkpoint codec: unsupported version %d", env.Version)
	}
	if got := crcHex(env.Payload); got != env.CRC32 {
		return nil, fmt.Errorf("fleet: checkpoint codec: payload checksum %s, header says %s", got, env.CRC32)
	}
	var doc wireCheckpoint
	pdec := json.NewDecoder(bytes.NewReader(env.Payload))
	pdec.DisallowUnknownFields()
	if err := pdec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint codec: payload: %w", err)
	}
	if doc.SpecHash == "" {
		return nil, fmt.Errorf("fleet: checkpoint codec: empty spec hash")
	}
	if doc.CodeVersion == "" {
		return nil, fmt.Errorf("fleet: checkpoint codec: empty code version")
	}
	if doc.Shards < 1 {
		return nil, fmt.Errorf("fleet: checkpoint codec: non-positive shard count %d", doc.Shards)
	}
	prev := -1
	for _, i := range doc.Done {
		if i < 0 || i >= doc.Shards {
			return nil, fmt.Errorf("fleet: checkpoint codec: done shard %d out of [0,%d)", i, doc.Shards)
		}
		if i <= prev {
			return nil, fmt.Errorf("fleet: checkpoint codec: done shards not in strictly ascending order at %d", i)
		}
		prev = i
	}
	acc, err := accFromWire(doc.Accumulator)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{
		SpecHash:      doc.SpecHash,
		CodeVersion:   doc.CodeVersion,
		ShardCount:    doc.Shards,
		CohortDevices: doc.CohortDevices,
		ProfileOrder:  doc.ProfileOrder,
		Failed:        doc.Failed,
		Acc:           acc,
		done:          make(map[int]bool, len(doc.Done)),
	}
	for _, i := range doc.Done {
		c.done[i] = true
	}
	if len(doc.Done) == 0 {
		if acc.devices != 0 || len(doc.Failed) != 0 {
			return nil, fmt.Errorf("fleet: checkpoint codec: %d devices and %d failures with no completed shards",
				acc.devices, len(doc.Failed))
		}
		return c, nil
	}
	if doc.CohortDevices < 1 {
		return nil, fmt.Errorf("fleet: checkpoint codec: non-positive cohort device count %d", doc.CohortDevices)
	}
	if len(doc.ProfileOrder) == 0 {
		return nil, fmt.Errorf("fleet: checkpoint codec: empty profile order")
	}
	known := make(map[string]bool, len(doc.ProfileOrder))
	for _, name := range doc.ProfileOrder {
		if name == "" {
			return nil, fmt.Errorf("fleet: checkpoint codec: empty profile name in profile order")
		}
		if known[name] {
			return nil, fmt.Errorf("fleet: checkpoint codec: duplicate profile %q in profile order", name)
		}
		known[name] = true
	}
	for name := range acc.profiles {
		if !known[name] {
			return nil, fmt.Errorf("fleet: checkpoint codec: accumulator profile %q absent from profile order", name)
		}
	}
	// The completed slices must account for exactly their devices — the
	// shard-document invariant, summed over the done set.
	var want int64
	for _, i := range doc.Done {
		lo, hi := ShardRange(doc.CohortDevices, i, doc.Shards)
		want += int64(hi - lo)
	}
	if got := acc.devices + int64(len(doc.Failed)); got != want {
		return nil, fmt.Errorf("fleet: checkpoint codec: %d completed shards account for %d devices, slices hold %d",
			len(doc.Done), got, want)
	}
	prevDev := -1
	for _, f := range doc.Failed {
		if f.Device <= prevDev {
			return nil, fmt.Errorf("fleet: checkpoint codec: failed devices not in strictly ascending order at %d", f.Device)
		}
		prevDev = f.Device
		if f.Device < 0 || f.Device >= doc.CohortDevices {
			return nil, fmt.Errorf("fleet: checkpoint codec: failed device %d outside the cohort", f.Device)
		}
		shard := sort.Search(doc.Shards, func(i int) bool {
			_, hi := ShardRange(doc.CohortDevices, i, doc.Shards)
			return f.Device < hi
		})
		if !c.done[shard] {
			return nil, fmt.Errorf("fleet: checkpoint codec: failed device %d belongs to incomplete shard %d", f.Device, shard)
		}
	}
	return c, nil
}
