package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"sparkxd"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/snn"
)

// pipelineRunner is the `pipeline` workload: every op builds a fresh
// System and runs the paper's full flow on it.
type pipelineRunner struct {
	seed uint64
	ref  map[int][32]byte // seed index -> digest of the first run's artifacts
	last *sparkxd.Pipeline
}

// sdkStages is the flow of one pipeline op, in order.
var sdkStages = []struct {
	name string
	run  func(context.Context, *sparkxd.Pipeline) error
}{
	{"train", func(ctx context.Context, p *sparkxd.Pipeline) error { _, err := p.Train(ctx); return err }},
	{"improve", func(ctx context.Context, p *sparkxd.Pipeline) error { _, err := p.ImproveTolerance(ctx); return err }},
	{"analyze", func(ctx context.Context, p *sparkxd.Pipeline) error { _, err := p.AnalyzeTolerance(ctx); return err }},
	{"map", func(ctx context.Context, p *sparkxd.Pipeline) error { _, err := p.MapAdaptive(ctx); return err }},
	{"evaluate", func(ctx context.Context, p *sparkxd.Pipeline) error { _, err := p.EvaluateUnderErrors(ctx); return err }},
	{"energy", func(ctx context.Context, p *sparkxd.Pipeline) error { _, err := p.EnergyReport(ctx); return err }},
}

func (r *pipelineRunner) callers() int { return 1 }

// setup is one warm pass: it runs op rep, which also records the
// reference artifacts of that System seed.
func (r *pipelineRunner) setup(ctx context.Context, rep int, _ *tracer) error {
	if r.ref == nil {
		r.ref = make(map[int][32]byte)
	}
	return r.op(ctx, 0, rep, nil, -1)
}

func (r *pipelineRunner) reference(context.Context) error { return nil }

func (r *pipelineRunner) op(ctx context.Context, _, k int, tr *tracer, parent int) error {
	sys, err := sparkxd.New(pipelineOptions(r.seed, k)...)
	if err != nil {
		return err
	}
	p := sys.Pipeline()
	for _, st := range sdkStages {
		_, end := tr.start("sparkxd."+st.name, parent)
		err := st.run(ctx, p)
		end()
		if err != nil {
			return err
		}
	}
	r.last = p
	if err := checkPipeline(p); err != nil {
		return wrongf("seed %d: %v", k%pipelineSeedCount, err)
	}
	b, err := json.Marshal(sparkxd.Result{Baseline: p.Baseline, Improved: p.Improved, Tolerance: p.Tolerance,
		Placement: p.Placement, Evaluation: p.Evaluation, Energy: p.Energy})
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	idx := k % pipelineSeedCount
	if want, ok := r.ref[idx]; !ok {
		r.ref[idx] = sum
	} else if sum != want {
		return wrongf("seed %d: artifacts differ from the first run of the same seed", idx)
	}
	return nil
}

// checkPipeline holds the paper's outcomes to their ranges: accuracies
// are fractions; the tolerance analysis keeps accuracy within the
// configured bound (1 %) of the error-free baseline at the BERth it
// reports; and SparkXD's mapping at reduced voltage saves DRAM energy.
// The final accuracy under errors is only range-checked: it is measured
// on another random stream than the analysis and, once the mapping
// relaxes the threshold, at another BER, so the bound is not promised
// there (with 50 test samples one sample is 2 %).
func checkPipeline(p *sparkxd.Pipeline) error {
	tol, ev, en := p.Tolerance, p.Evaluation, p.Energy
	if !(ev.BaselineAcc > 0 && ev.BaselineAcc <= 1 && ev.Accuracy > 0 && ev.Accuracy <= 1) {
		return fmt.Errorf("accuracy out of range: baseline %v, under errors %v", ev.BaselineAcc, ev.Accuracy)
	}
	for _, pt := range tol.Curve {
		if pt.BER == tol.BERth && pt.Acc < tol.BaselineAcc-tol.AccBound {
			return fmt.Errorf("BERth %g has accuracy %.4f, outside the bound %.4f of the baseline %.4f",
				tol.BERth, pt.Acc, tol.AccBound, tol.BaselineAcc)
		}
	}
	if !(en.Savings > 0 && en.Savings < 1) {
		return fmt.Errorf("DRAM energy savings %v out of (0, 1)", en.Savings)
	}
	return nil
}

func (r *pipelineRunner) check(context.Context, []int) (int, error) { return 0, nil }

func (r *pipelineRunner) retrace(context.Context, *tracer) error { return nil }

// layers probes the nested kernels on the last op's model, data and
// placement.
func (r *pipelineRunner) layers(ctx context.Context, tr *tracer) error {
	p := r.last
	net, err := networkOf(p.Improved)
	if err != nil {
		return err
	}
	train, test, err := data(100, 50)
	if err != nil {
		return err
	}
	return probeKernels(ctx, tr, probeInput{
		net: net, train: train, test: test,
		profile: p.Placement.Profile, voltage: p.Placement.Voltage,
		berTh: p.Placement.RequestedBERth, wantEffTh: p.Placement.EffectiveBERth,
		wantEnergyMJ: p.Energy.SparkXD.TotalMJ,
	})
}

func (r *pipelineRunner) close() {}

// sweepRunner is the `sweep` workload: set-up trains one N400 model;
// every op sweeps the 24-scenario paper grid over it.
type sweepRunner struct {
	seed uint64
	sys  *sparkxd.System
	p    *sparkxd.Pipeline
	ref  []byte // Workers = 1 report
}

func (r *sweepRunner) callers() int { return 1 }

func (r *sweepRunner) setup(ctx context.Context, _ int, _ *tracer) error {
	sys, err := sparkxd.New(sweepOptions(r.seed)...)
	if err != nil {
		return err
	}
	p := sys.Pipeline()
	if _, err := p.Train(ctx); err != nil {
		return err
	}
	if _, err := p.Sweep(ctx, paperGrid(2)); err != nil {
		return err
	}
	r.sys, r.p = sys, p
	return nil
}

func (r *sweepRunner) reference(ctx context.Context) error {
	rep, err := r.p.Sweep(ctx, paperGrid(1))
	if err != nil {
		return err
	}
	r.ref, err = json.Marshal(rep)
	return err
}

func (r *sweepRunner) op(ctx context.Context, _, _ int, tr *tracer, parent int) error {
	h0, m0 := r.sys.SweepCacheStats()
	_, end := tr.start("sparkxd.sweep", parent)
	rep, err := r.p.Sweep(ctx, paperGrid(2))
	end()
	if err != nil {
		return err
	}
	h1, m1 := r.sys.SweepCacheStats()
	tr.count("engine.scenarios", float64(len(rep.Points)))
	tr.count("engine.profile_cache.hits", float64(h1-h0))
	tr.count("engine.profile_cache.lookups", float64(h1-h0+m1-m0))
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, r.ref) {
		return wrongf("sweep report differs from the Workers = 1 reference")
	}
	return nil
}

func (r *sweepRunner) check(context.Context, []int) (int, error) { return 0, nil }

func (r *sweepRunner) retrace(context.Context, *tracer) error { return nil }

// layers times one-point sweeps (one engine.Run per scenario, each
// checked against its point of the full report), then probes the
// nested kernels on the N400 model with the placement of the grid's
// (1.025 V, BER 1e-4, sparkxd) point.
func (r *sweepRunner) layers(ctx context.Context, tr *tracer) error {
	var full sparkxd.SweepReport
	if err := json.Unmarshal(r.ref, &full); err != nil {
		return err
	}
	grid := paperGrid(2)
	for _, pt := range full.Points {
		em, err := pt.ErrorModel.Model()
		if err != nil {
			return err
		}
		one := sparkxd.SweepSpec{Voltages: []float64{pt.Voltage}, BERs: []float64{pt.BER},
			ErrorModels: []sparkxd.ErrorModel{em}, Policies: []sparkxd.Policy{pt.Policy}, Workers: grid.Workers}
		_, end := tr.start("engine.scenario", -1)
		rep, err := r.p.Sweep(ctx, one)
		end()
		if err != nil {
			return err
		}
		if len(rep.Points) != 1 || rep.Points[0] != pt {
			return wrongf("one-point sweep of %s differs from its point in the full grid", pt.Key)
		}
	}
	net, err := networkOf(r.p.Baseline)
	if err != nil {
		return err
	}
	train, test, err := data(r.p.Baseline.TrainSamples, r.p.Baseline.TestSamples)
	if err != nil {
		return err
	}
	in := probeInput{net: net, train: train, test: test, voltage: 1.025, berTh: 1e-4}
	for _, pt := range full.Points {
		if pt.Voltage == in.voltage && pt.BER == in.berTh && pt.Policy == sparkxd.PolicySparkXD &&
			pt.ErrorModel == sparkxd.ErrorModelName("model0-uniform") {
			in.wantEffTh = pt.EffectiveBERth
		}
	}
	fw := core.NewFramework()
	if in.profile, err = fw.ProfileAt(in.voltage); err != nil {
		return err
	}
	return probeKernels(ctx, tr, in)
}

func (r *sweepRunner) close() {}

// networkOf rebuilds the SNN of a trained model from its checkpoint.
func networkOf(m *sparkxd.TrainedModel) (*snn.Network, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var raw struct {
		Checkpoint *snn.Checkpoint `json:"checkpoint"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	return snn.FromCheckpoint(raw.Checkpoint)
}

// data regenerates the synthetic MNIST-like sets a System of this
// sample budget trains and tests on.
func data(trainN, testN int) (*dataset.Dataset, *dataset.Dataset, error) {
	cfg := dataset.DefaultConfig(dataset.MNISTLike)
	cfg.Train, cfg.Test = trainN, testN
	return dataset.Generate(cfg)
}
