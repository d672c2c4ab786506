package main

import (
	"reflect"
	"testing"
)

// streamIDs returns the job IDs of the first n serve ops.
func streamIDs(t *testing.T, seed uint64, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for k := range ids {
		id, err := serveSpec(seed, k).ID()
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		ids[k] = id
	}
	return ids
}

func TestServeStreamIsDeterministicInTheSeed(t *testing.T) {
	if a, b := streamIDs(t, 7, 64), streamIDs(t, 7, 64); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job streams")
	}
}

func TestServeStreamOtherSeedSameShape(t *testing.T) {
	seen := make(map[string]bool)
	for _, id := range streamIDs(t, 1, 64) {
		if seen[id] {
			t.Fatalf("job %s repeats within one stream: it would be deduplicated", id)
		}
		seen[id] = true
	}
	for k, id := range streamIDs(t, 2, 64) {
		if seen[id] {
			t.Errorf("op %d: seed 2 repeats a job of seed 1", k)
		}
	}
	for k := 0; k < 64; k++ {
		a, b := serveSpec(1, k), serveSpec(2, k)
		if a.Config.Seed == b.Config.Seed {
			t.Errorf("op %d: both seeds give System seed %d", k, a.Config.Seed)
		}
		a.Config.Seed, b.Config.Seed = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("op %d: shapes differ: %+v vs %+v", k, a, b)
		}
	}
}

func TestServeBlocksShareAConfiguration(t *testing.T) {
	for k := 0; k < 3*serveBlock; k++ {
		spec := serveSpec(3, k)
		first := serveSpec(3, k/serveBlock*serveBlock)
		if spec.Config.Seed != first.Config.Seed {
			t.Errorf("op %d leaves its block's configuration", k)
		}
		wantSweep := k%serveBlock == serveBlock-1
		if (spec.Sweep != nil) != wantSweep {
			t.Errorf("op %d: sweep %v, want %v (3 train : 1 sweep)", k, spec.Sweep != nil, wantSweep)
		}
	}
	if serveSpec(3, 0).Config.Seed == serveSpec(3, serveBlock).Config.Seed {
		t.Error("consecutive blocks share a configuration")
	}
}

func TestWarmSpecsStayOutOfTheStream(t *testing.T) {
	stream := make(map[string]bool)
	for _, id := range streamIDs(t, 5, 400) {
		stream[id] = true
	}
	for rep := 0; rep < setupReps; rep++ {
		for _, spec := range warmSpecs(5, rep) {
			id, err := spec.ID()
			if err != nil {
				t.Fatal(err)
			}
			if stream[id] {
				t.Errorf("warm job %s of set-up %d is also a timed op", id, rep)
			}
		}
	}
}

func TestPipelineSeedsCycleAndFollowTheSeed(t *testing.T) {
	for k := 0; k < 2*pipelineSeedCount; k++ {
		if pipelineSystemSeed(9, k) != pipelineSystemSeed(9, k+pipelineSeedCount) {
			t.Errorf("op %d and op %d should share a System seed", k, k+pipelineSeedCount)
		}
		if pipelineSystemSeed(9, k) == pipelineSystemSeed(10, k) {
			t.Errorf("op %d: seeds 9 and 10 give the same System seed", k)
		}
	}
	if pipelineSystemSeed(9, 0) == pipelineSystemSeed(9, 1) {
		t.Error("consecutive ops share a System seed")
	}
	if derive(9, streamSweep, 0) == derive(9, streamPipeline, 0) {
		t.Error("workload streams are not independent")
	}
}

func TestPaperGridHas24Scenarios(t *testing.T) {
	g := paperGrid(2)
	if n := len(g.Voltages) * len(g.BERs) * len(g.ErrorModels) * len(g.Policies); n != 24 {
		t.Fatalf("grid has %d scenarios, want 24", n)
	}
}
