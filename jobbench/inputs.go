package main

import (
	"math/rand/v2"

	"sparkxd"
)

// Everything a workload feeds the program is generated here from the
// workload seed: System seeds, sweep grids and job specs. The same seed
// gives the same inputs; another seed gives inputs of the same shape
// (same sizes, stages, grid and mix) with different seeds inside, so
// per-op cost does not depend on the seed.

// Stream selectors keep the seed's derived streams independent.
const (
	streamPipeline = iota + 1
	streamSweep
	streamServe
	streamWarm
)

// derive returns the i-th nonzero value of the seed's stream (zero is
// the SDK's "use the default" spelling, so it is never produced).
func derive(seed uint64, stream, i int) uint64 {
	r := rand.New(rand.NewPCG(seed, uint64(stream)<<32|uint64(i)))
	return 1 + r.Uint64N(1<<40)
}

// pipelineSeedCount is how many System seeds the pipeline ops cycle
// through; every seed recurs, so each op's artifacts can be compared
// with an earlier run of the same seed.
const pipelineSeedCount = 3

// pipelineSystemSeed is the System seed of pipeline op k.
func pipelineSystemSeed(seed uint64, k int) uint64 {
	return derive(seed, streamPipeline, k%pipelineSeedCount)
}

// pipelineOptions configures the System of pipeline op k.
func pipelineOptions(seed uint64, k int) []sparkxd.Option {
	s := pipelineSystemSeed(seed, k)
	return []sparkxd.Option{
		sparkxd.WithNeurons(100),
		sparkxd.WithSampleBudget(100, 50),
		sparkxd.WithBaseEpochs(1),
		sparkxd.WithBERSchedule(1e-6, 1e-5, 1e-4, 1e-3),
		sparkxd.WithVoltage(1.025),
		sparkxd.WithSeed(s),
		sparkxd.WithTrainSeed(s + 1),
	}
}

// sweepOptions configures the System whose N400 model the sweep
// workload trains once and then sweeps.
func sweepOptions(seed uint64) []sparkxd.Option {
	s := derive(seed, streamSweep, 0)
	return []sparkxd.Option{
		sparkxd.WithNeurons(400),
		sparkxd.WithSeed(s),
		sparkxd.WithTrainSeed(s + 1),
		sparkxd.WithSweepWorkers(2),
	}
}

// paperGrid is the 24-scenario grid of the sweep workload: 2 voltages ×
// 3 BER thresholds × 2 error models × 2 mapping policies.
func paperGrid(workers int) sparkxd.SweepSpec {
	return sparkxd.SweepSpec{
		Voltages:    []float64{1.1, 1.025},
		BERs:        []float64{1e-5, 1e-4, 1e-3},
		ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform, sparkxd.ErrorModelBitline},
		Policies:    []sparkxd.Policy{sparkxd.PolicyBaseline, sparkxd.PolicySparkXD},
		Workers:     workers,
	}
}

// serveBlock is how many consecutive jobs share one configuration: the
// first builds the warm System, the rest find it warm.
const serveBlock = 4

// serveConfig is the tiny loadgen-style configuration of block b.
func serveConfig(seed uint64, stream, b int) sparkxd.ConfigSpec {
	return sparkxd.ConfigSpec{
		Neurons:      20,
		TrainSamples: 20,
		TestSamples:  10,
		BaseEpochs:   1,
		BERSchedule:  []float64{1e-5},
		Seed:         derive(seed, stream, b),
	}
}

// serveSpec is job k of the serve workloads' stream: per block, three
// train jobs then one sweep job on the same configuration. The train
// jobs differ only in priority, which is part of the job identity, so
// each is a real execution rather than a deduplicated resubmission.
func serveSpec(seed uint64, k int) sparkxd.JobSpec {
	return specAt(serveConfig(seed, streamServe, k/serveBlock), k%serveBlock)
}

// warmSpecs are the set-up pass of the serve workloads: one job of each
// kind, on a configuration the timed stream never uses.
func warmSpecs(seed uint64, rep int) []sparkxd.JobSpec {
	cfg := serveConfig(seed, streamWarm, rep)
	return []sparkxd.JobSpec{specAt(cfg, 0), specAt(cfg, serveBlock-1)}
}

// specAt builds position j of a block on cfg.
func specAt(cfg sparkxd.ConfigSpec, j int) sparkxd.JobSpec {
	if j < serveBlock-1 {
		return sparkxd.JobSpec{Kind: sparkxd.JobPipeline, Stage: "train", Config: cfg, Priority: j}
	}
	return sparkxd.JobSpec{
		Kind:   sparkxd.JobSweep,
		Config: cfg,
		Sweep: &sparkxd.SweepSpec{
			Voltages:    []float64{1.1},
			BERs:        []float64{1e-5},
			ErrorModels: []sparkxd.ErrorModel{sparkxd.ErrorModelUniform},
			Policies:    []sparkxd.Policy{sparkxd.PolicySparkXD},
		},
	}
}
