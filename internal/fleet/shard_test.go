package fleet

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// runSharded executes the cohort split count ways, round-trips every
// shard through its wire document, and merges centrally — the full
// distributed path, minus the process boundary (cmd/ccdem-svc's tests
// add that).
func runSharded(t *testing.T, cohort Cohort, count int, pool Pool) *Result {
	t.Helper()
	shards := make([]*Shard, count)
	for i := 0; i < count; i++ {
		c := cohort
		c.ShardIndex, c.ShardCount = i, count
		s, err := c.RunShard(context.Background(), pool)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		var doc bytes.Buffer
		if err := s.Encode(&doc); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeShard(&doc)
		if err != nil {
			t.Fatalf("shard %d/%d: decode: %v", i, count, err)
		}
		shards[i] = decoded
	}
	res, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedRunMatchesSingleProcess pins the distributed tentpole's
// exactness claim: a campaign split into wire-encoded shards and merged
// centrally in shard order produces byte-identical aggregate JSON to the
// single-process streamed run of the same cohort, at any shard count and
// per-shard worker count.
func TestShardedRunMatchesSingleProcess(t *testing.T) {
	cohort := testCohort(10)
	cohort.Stream = true
	direct, err := cohort.Run(context.Background(), Pool{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.WriteJSON(&want, false); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		count, workers int
	}{{1, 1}, {2, 2}, {2, 1}, {3, 2}, {5, 4}} {
		t.Run(fmt.Sprintf("shards=%d workers=%d", tc.count, tc.workers), func(t *testing.T) {
			res := runSharded(t, testCohort(10), tc.count, Pool{Workers: tc.workers})
			var got bytes.Buffer
			if err := res.WriteJSON(&got, false); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("sharded aggregate differs from single-process run:\n--- direct ---\n%s\n--- sharded ---\n%s",
					want.String(), got.String())
			}
		})
	}
}

// TestMergeShardsRejectsInconsistentSets: a shard set that is not
// exactly one shard per index of one campaign is refused whole — a
// missing shard, a duplicate index, a shard of a different-size cohort,
// and a shard whose profile order differs.
func TestMergeShardsRejectsInconsistentSets(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(t *testing.T, s []*Shard) []*Shard
		want string
	}{
		{"missing shard", func(t *testing.T, s []*Shard) []*Shard { return s[:2] }, "2 of 3 shards complete"},
		{"duplicate index", func(t *testing.T, s []*Shard) []*Shard { return []*Shard{s[0], s[1], s[1]} }, "duplicate shard 1"},
		{"mismatched cohort size", func(t *testing.T, s []*Shard) []*Shard {
			return []*Shard{s[0], s[1], runTestShards(t, ckptTestCohort(15), 3)[2]}
		}, "15-device cohort"},
		{"differing profile order", func(t *testing.T, s []*Shard) []*Shard {
			order := slices.Clone(s[2].ProfileOrder)
			if len(order) < 2 {
				t.Fatalf("profile order %v cannot be reordered", order)
			}
			slices.Reverse(order)
			s[2].ProfileOrder = order
			return s
		}, "profile order differs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := MergeShards(tc.set(t, runTestShards(t, ckptTestCohort(12), 3)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("MergeShards = %v, %v; want an error containing %q", res, err, tc.want)
			}
		})
	}
}

// TestShardedRunCarriesFailures: device failures inside a shard cross the
// wire and surface in the merged result exactly where a single-process
// run reports them, and the aggregate over the survivors is still
// byte-identical.
func TestShardedRunCarriesFailures(t *testing.T) {
	broken := map[int]bool{2: true, 7: true}
	mk := func() Cohort {
		c := testCohort(9)
		c.Stream = true
		c.testHook = func(device int) {
			if broken[device] {
				panic(fmt.Sprintf("device %d is broken", device))
			}
		}
		return c
	}
	direct, err := mk().Run(context.Background(), Pool{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.WriteJSON(&want, false); err != nil {
		t.Fatal(err)
	}

	res := runSharded(t, mk(), 3, Pool{Workers: 2})
	if len(res.Failed) != len(broken) {
		t.Fatalf("merged result reports %d failures, want %d: %+v", len(res.Failed), len(broken), res.Failed)
	}
	for i, want := range []int{2, 7} {
		if res.Failed[i].Device != want {
			t.Errorf("Failed[%d].Device = %d, want %d", i, res.Failed[i].Device, want)
		}
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got, false); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("sharded aggregate with failures differs from single-process run:\n--- direct ---\n%s\n--- sharded ---\n%s",
			want.String(), got.String())
	}
}

// TestRunShardAllFailed: a shard whose whole slice failed is data, not an
// error — the central merge decides the campaign's fate.
func TestRunShardAllFailed(t *testing.T) {
	c := testCohort(4)
	c.ShardIndex, c.ShardCount = 0, 2
	c.testHook = func(int) { panic("nothing works") }
	s, err := c.RunShard(context.Background(), Pool{Workers: 2})
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if s.Acc.Devices() != 0 || len(s.Failed) != 2 {
		t.Fatalf("shard = %d survivors, %d failures; want 0 and 2", s.Acc.Devices(), len(s.Failed))
	}
	var doc bytes.Buffer
	if err := s.Encode(&doc); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeShard(&doc); err != nil {
		t.Fatalf("all-failed shard must still round-trip: %v", err)
	}
}

// TestCohortShardValidation: shard configuration errors are caught at the
// boundary.
func TestCohortShardValidation(t *testing.T) {
	cases := []struct {
		name         string
		index, count int
	}{
		{"negative count", 0, -1},
		{"index at count", 2, 2},
		{"negative index", -1, 2},
		{"index without count", 1, 0},
		{"more shards than devices", 0, 99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCohort(6)
			c.ShardIndex, c.ShardCount = tc.index, tc.count
			if _, err := c.Run(context.Background(), Pool{Workers: 1}); err == nil {
				t.Errorf("shard %d/%d accepted", tc.index, tc.count)
			}
		})
	}
}

// TestShardRangePartition: the cut points tile the index space exactly.
func TestShardRangePartition(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1_000_003} {
		for _, count := range []int{1, 2, 3, 8} {
			if count > n {
				continue
			}
			next := 0
			for i := 0; i < count; i++ {
				lo, hi := ShardRange(n, i, count)
				if lo != next || hi < lo {
					t.Fatalf("ShardRange(%d, %d, %d) = [%d,%d), want lo %d", n, i, count, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("ShardRange(%d, ·, %d) tiles to %d, want %d", n, count, next, n)
			}
		}
	}
}
