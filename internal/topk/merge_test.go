package topk

import (
	"reflect"
	"testing"

	"repro/internal/rank"
)

func ds(id uint32, score float64) rank.DocScore { return rank.DocScore{DocID: id, Score: score} }

// TestMergeShards drives the scatter/gather merge through its bound
// administration: exact shards, epsilon-relaxed shards, duplicate scores,
// k > n degeneracies, empty shards, and the single-shard case.
func TestMergeShards(t *testing.T) {
	cases := []struct {
		name      string
		shards    []ShardTop
		n         int
		wantTop   []rank.DocScore
		wantExact bool
	}{
		{
			name: "two exact shards interleave",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 9), ds(2, 5), ds(3, 1)}},
				{Top: []rank.DocScore{ds(10, 8), ds(11, 4), ds(12, 2)}},
			},
			n:         4,
			wantTop:   []rank.DocScore{ds(1, 9), ds(10, 8), ds(2, 5), ds(11, 4)},
			wantExact: true,
		},
		{
			name: "duplicate scores break ties by ascending doc id",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(7, 5), ds(9, 5)}},
				{Top: []rank.DocScore{ds(2, 5), ds(8, 5)}},
			},
			n:         3,
			wantTop:   []rank.DocScore{ds(2, 5), ds(7, 5), ds(8, 5)},
			wantExact: true,
		},
		{
			name: "n larger than total candidates stays exact with zero bounds",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 3)}},
				{Top: []rank.DocScore{ds(2, 2)}},
			},
			n:         10,
			wantTop:   []rank.DocScore{ds(1, 3), ds(2, 2)},
			wantExact: true,
		},
		{
			name: "n larger than total candidates inexact with positive bound",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 3)}},
				{Top: []rank.DocScore{ds(2, 2)}, Bound: 0.5},
			},
			n:         10,
			wantTop:   []rank.DocScore{ds(1, 3), ds(2, 2)},
			wantExact: false,
		},
		{
			name: "empty shards are ignored",
			shards: []ShardTop{
				{},
				{Top: []rank.DocScore{ds(4, 7), ds(5, 6)}},
				{Top: nil},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(4, 7), ds(5, 6)},
			wantExact: true,
		},
		{
			name:      "all shards empty with zero bounds",
			shards:    []ShardTop{{}, {}},
			n:         3,
			wantTop:   []rank.DocScore{},
			wantExact: true,
		},
		{
			name:      "all shards empty but one could hide mass",
			shards:    []ShardTop{{}, {Bound: 0.1}},
			n:         3,
			wantTop:   []rank.DocScore{},
			wantExact: false,
		},
		{
			name: "single shard exact truncated is its own answer",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(3, 9), ds(1, 8)}, Truncated: true},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(3, 9), ds(1, 8)},
			wantExact: true,
		},
		{
			name: "relaxed shard bound below the cutoff keeps exactness",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 9), ds(2, 8)}},
				// Weakest reported 1.0 + bound 0.5 < merged nth 8.
				{Top: []rank.DocScore{ds(10, 1)}, Bound: 0.5, Truncated: true},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(1, 9), ds(2, 8)},
			wantExact: true,
		},
		{
			name: "relaxed shard hidden mass can reach the cutoff",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 9), ds(2, 8)}},
				// Weakest reported 7.9 + bound 0.5 > merged nth 8.
				{Top: []rank.DocScore{ds(10, 7.9)}, Bound: 0.5, Truncated: true},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(1, 9), ds(2, 8)},
			wantExact: false,
		},
		{
			name: "displaced underestimated score can exceed the cutoff",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 9), ds(2, 8)}},
				// Reported 7.8 is below the merged nth, but its true
				// score may reach 8.3.
				{Top: []rank.DocScore{ds(10, 7.8)}, Bound: 0.5},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(1, 9), ds(2, 8)},
			wantExact: false,
		},
		{
			name: "untouched-document bound below cutoff keeps exactness",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 9), ds(2, 8)}},
				{Top: nil, Bound: 0.5},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(1, 9), ds(2, 8)},
			wantExact: true,
		},
		{
			name: "floored shard short of n, floor at the merged N-th score, certifies",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 9), ds(2, 8)}, Truncated: true, Floor: 8},
				// Everything else this shard holds scores below 8.
				{Top: []rank.DocScore{ds(10, 8)}, Floor: 8},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(1, 9), ds(2, 8)},
			wantExact: true,
		},
		{
			name: "floored shard short of n, floor above the merged N-th score, is refused",
			shards: []ShardTop{
				// The floor 8.5 was earned from a shard that is not merged:
				// this one may hold a document scoring 8.2 it never reported.
				{Top: []rank.DocScore{ds(1, 9)}, Floor: 8.5},
				{Top: []rank.DocScore{ds(10, 8)}, Floor: 8.5},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(1, 9), ds(10, 8)},
			wantExact: false,
		},
		{
			name: "floored shards with fewer than n merged results are refused",
			shards: []ShardTop{
				{Top: []rank.DocScore{ds(1, 9)}, Floor: 3},
				{Floor: 3},
			},
			n:         2,
			wantTop:   []rank.DocScore{ds(1, 9)},
			wantExact: false,
		},
		{
			name:      "floored shards reporting nothing are refused",
			shards:    []ShardTop{{Floor: 3}, {Floor: 3}},
			n:         2,
			wantTop:   []rank.DocScore{},
			wantExact: false,
		},
		{
			name:      "non-positive n yields nothing",
			shards:    []ShardTop{{Top: []rank.DocScore{ds(1, 1)}}},
			n:         0,
			wantTop:   nil,
			wantExact: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, exact := MergeShards(tc.shards, tc.n)
			if len(got) != len(tc.wantTop) {
				t.Fatalf("merged %d results, want %d: %v", len(got), len(tc.wantTop), got)
			}
			for i := range got {
				if got[i] != tc.wantTop[i] {
					t.Errorf("position %d: got %v, want %v", i, got[i], tc.wantTop[i])
				}
			}
			if exact != tc.wantExact {
				t.Errorf("exact = %v, want %v", exact, tc.wantExact)
			}
		})
	}
}

// TestMergeShardsMatchesSelectTop checks the heap path the merge rides
// on: merging exact shards must equal SelectTop over the concatenation.
func TestMergeShardsMatchesSelectTop(t *testing.T) {
	shards := []ShardTop{
		{Top: []rank.DocScore{ds(1, 5), ds(4, 4), ds(6, 3)}},
		{Top: []rank.DocScore{ds(2, 5), ds(3, 4), ds(5, 2)}},
		{Top: []rank.DocScore{ds(7, 4.5)}},
	}
	var all []rank.DocScore
	for _, s := range shards {
		all = append(all, s.Top...)
	}
	for n := 1; n <= len(all)+2; n++ {
		merged, exact := MergeShards(shards, n)
		want := SelectTop(all, n)
		if !reflect.DeepEqual(merged, want) {
			t.Fatalf("n=%d: merged %v, want %v", n, merged, want)
		}
		if !exact {
			t.Fatalf("n=%d: zero-bound merge must be exact", n)
		}
	}
}
