// Package svc is the campaign service layer behind cmd/ccdem-svc: a
// bounded asynchronous job manager that accepts cohort campaign specs,
// splits each campaign into shard worker runs (in-process or one
// subprocess per shard), streams live per-job progress to any number of
// watchers, and merges the shards' wire-encoded accumulators centrally —
// in shard order — into a result byte-identical to a single-process
// streamed run of the same spec.
package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"ccdem/internal/fault"
	"ccdem/internal/fleet"
)

// JobSpec is a submitted campaign: the cohort specification document
// (the same format cmd/ccdem-fleet -spec reads) plus how to run it.
type JobSpec struct {
	// Spec is the embedded fleet cohort specification (devices, seed,
	// session, governor, profiles...). Required.
	Spec json.RawMessage `json:"spec"`
	// Shards is the number of worker runs the campaign splits into
	// (0 or 1 = unsharded). Each shard covers one contiguous slice of the
	// device index space; the merge in shard order reproduces the
	// unsharded aggregate bit for bit.
	Shards int `json:"shards,omitempty"`
	// Workers bounds each shard's device-simulation concurrency
	// (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// Batch is the pool's per-claim index range (0 = one at a time).
	Batch int `json:"batch,omitempty"`
	// Faults scales the default fault plan injected into managed segments
	// (0 = off, 1 = reference chaos mix).
	Faults float64 `json:"faults,omitempty"`
	// Hardened enables governor fail-safe hardening on managed segments.
	Hardened bool `json:"hardened,omitempty"`
	// TaskTimeoutS bounds each device simulation's wall-clock seconds; a
	// device exceeding it is reported failed (0 = unlimited).
	TaskTimeoutS float64 `json:"task_timeout_s,omitempty"`
	// Label is a free-form human tag echoed in progress reports.
	Label string `json:"label,omitempty"`
}

// DecodeJobSpec reads one JobSpec document from r. It is the one decoder
// of job documents — the HTTP API, journal recovery and the shard worker
// all read through it — so all three accept exactly the same documents:
// unknown fields and any data after the document are rejected. The
// embedded cohort document comes back in the form json.Marshal writes it
// (compact, an absent spec as null), which is the form the journal and
// the workers receive, so a decoded spec re-encodes and decodes to itself.
// It does not validate the run parameters or the cohort; Validate does.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, errors.New("trailing data after document")
	}
	doc, err := json.Marshal(spec.Spec)
	if err != nil {
		return JobSpec{}, err
	}
	spec.Spec = doc
	return spec, nil
}

// shards is the normalized shard count.
func (s JobSpec) shards() int {
	if s.Shards < 1 {
		return 1
	}
	return s.Shards
}

// Validate checks the run parameters and the embedded cohort document.
// It is the one validation path: the HTTP boundary, the manager, and the
// shard workers all reject exactly what it rejects.
func (s JobSpec) Validate() error {
	_, err := s.cohort()
	return err
}

// cohort materializes and validates the job's cohort (unsharded).
func (s JobSpec) cohort() (fleet.Cohort, error) {
	if doc := bytes.TrimSpace(s.Spec); len(doc) == 0 || bytes.Equal(doc, []byte("null")) {
		return fleet.Cohort{}, fmt.Errorf("svc: missing cohort spec (field \"spec\")")
	}
	cohort, err := fleet.ReadSpec(bytes.NewReader(s.Spec))
	if err != nil {
		return fleet.Cohort{}, err
	}
	if s.Shards < 0 {
		return fleet.Cohort{}, fmt.Errorf("svc: negative shard count %d", s.Shards)
	}
	if n := s.shards(); n > cohort.Devices {
		return fleet.Cohort{}, fmt.Errorf("svc: %d shards over %d devices leaves empty shards", n, cohort.Devices)
	}
	if s.Workers < 0 {
		return fleet.Cohort{}, fmt.Errorf("svc: negative worker count %d", s.Workers)
	}
	if s.Batch < 0 {
		return fleet.Cohort{}, fmt.Errorf("svc: negative batch size %d", s.Batch)
	}
	if s.Faults < 0 {
		return fleet.Cohort{}, fmt.Errorf("svc: negative fault intensity %g", s.Faults)
	}
	if s.TaskTimeoutS < 0 {
		return fleet.Cohort{}, fmt.Errorf("svc: negative task timeout %gs", s.TaskTimeoutS)
	}
	if s.Faults > 0 {
		plan := fault.DefaultPlan().Scale(s.Faults)
		cohort.Faults = &plan
	}
	cohort.Hardened = s.Hardened
	return cohort, nil
}

// shardCohort materializes the cohort and pool for one shard of the job.
func (s JobSpec) shardCohort(index int) (fleet.Cohort, fleet.Pool, error) {
	cohort, err := s.cohort()
	if err != nil {
		return fleet.Cohort{}, fleet.Pool{}, err
	}
	count := s.shards()
	if index < 0 || index >= count {
		return fleet.Cohort{}, fleet.Pool{}, fmt.Errorf("svc: shard index %d out of [0,%d)", index, count)
	}
	cohort.ShardIndex, cohort.ShardCount = index, count
	pool := fleet.Pool{
		Workers:     s.Workers,
		Batch:       s.Batch,
		TaskTimeout: time.Duration(s.TaskTimeoutS * float64(time.Second)),
	}
	return cohort, pool, nil
}
