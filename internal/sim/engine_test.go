package sim

import "testing"

// TestRunShardsCoverContiguously: runShards must hand out every work item
// in [0, n) exactly once, in contiguous shards whose index order is item
// order, call each shard once, and report at least one shard.
func TestRunShardsCoverContiguously(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, workers - 1, workers, 10*workers + 3} {
			ranges := make([][2]int, workers)
			calls := make([]int, workers)
			got := runShards(workers, n, func(wi, lo, hi int) {
				ranges[wi] = [2]int{lo, hi}
				calls[wi]++
			})
			if got < 1 || got > max(1, min(workers, n)) {
				t.Fatalf("workers=%d n=%d: %d shards", workers, n, got)
			}
			next := 0
			for wi := range ranges {
				if wi >= got {
					if calls[wi] != 0 {
						t.Errorf("workers=%d n=%d: shard %d of %d ran", workers, n, wi, got)
					}
					continue
				}
				lo, hi := ranges[wi][0], ranges[wi][1]
				if calls[wi] != 1 || lo != next || hi < lo || (n > 0 && hi == lo) {
					t.Errorf("workers=%d n=%d: shard %d ran %d times over [%d, %d), want once from %d",
						workers, n, wi, calls[wi], lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Errorf("workers=%d n=%d: shards end at %d", workers, n, next)
			}
		}
	}
}
