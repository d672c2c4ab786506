package main

import (
	"context"
	"fmt"

	"sparkxd/internal/coding"
	"sparkxd/internal/core"
	"sparkxd/internal/dataset"
	"sparkxd/internal/errmodel"
	"sparkxd/internal/memctrl"
	"sparkxd/internal/numeric"
	"sparkxd/internal/quant"
	"sparkxd/internal/rng"
	"sparkxd/internal/snn"
)

// probeInput is one workload's model, data and placement.
type probeInput struct {
	net         *snn.Network
	train, test *dataset.Dataset
	profile     *errmodel.Profile
	voltage     float64
	berTh       float64 // requested mapping threshold
	// wantEffTh is the effective threshold the program's own mapping
	// arrived at for (profile, berTh); the map probe must agree.
	wantEffTh float64
	// wantEnergyMJ, when nonzero, is the program's own SparkXD energy at
	// this placement; the replay probe must agree.
	wantEnergyMJ float64
}

// stepProbeSamples bounds how many test samples feed the neuron probe.
const stepProbeSamples = 16

// probeKernels times each nested kernel as a standalone call on the
// workload's own model, data and placement, recording per-call busy
// time and work counts. The calls run on clones, so the workload's
// model is left as it was.
func probeKernels(ctx context.Context, tr *tracer, in probeInput) error {
	r := rng.New(1)
	steps := in.net.Cfg.Steps

	// Encode (coding + rng): the test set through the network's encoder.
	trains := make([]coding.Train, 0, in.test.Len())
	_, end := tr.start("coding.encode", -1)
	for _, img := range in.test.Images {
		trains = append(trains, in.net.Cfg.Encoder.Encode(img, steps, r))
	}
	end()
	tr.count("coding.encode.calls", float64(len(trains)))
	for _, t := range trains {
		tr.count("coding.encode.spikes", float64(t.TotalSpikes()))
	}

	// Train: one STDP epoch and one label assignment on a clone.
	clone := in.net.Clone()
	_, end = tr.start("snn.train_epoch", -1)
	err := clone.TrainEpochCtx(ctx, in.train, r.Derive("epoch"))
	end()
	if err != nil {
		return err
	}
	tr.count("snn.train_epoch.samples", float64(in.train.Len()))
	_, end = tr.start("snn.assign_labels", -1)
	err = clone.AssignLabelsCtx(ctx, in.train, r.Derive("assign"))
	end()
	if err != nil {
		return err
	}

	// Evaluation, Phase A + B: encode the test set, then evaluate it.
	_, end = tr.start("snn.encode_dataset", -1)
	es, err := in.net.EncodeDataset(ctx, in.test, r.Derive("eval"), 2)
	end()
	if err != nil {
		return err
	}
	_, end = tr.start("snn.eval_encoded", -1)
	_, err = in.net.Clone().EvaluateEncoded(ctx, es, 2)
	end()
	if err != nil {
		return err
	}
	tr.count("snn.eval_encoded.samples", float64(es.Len()))

	probeStep(tr, in.net, trains)

	// Weight load/map: Algorithm 2 with threshold relaxation.
	fw := core.NewFramework()
	wc := in.net.WeightCount()
	_, end = tr.start("core.map", -1)
	layout, th, err := fw.MapAdaptiveWithProfile(in.profile, wc, in.berTh)
	end()
	if err != nil {
		return err
	}
	if th != in.wantEffTh {
		return wrongf("map probe chose BERth %g, the program %g", th, in.wantEffTh)
	}

	// Inject: weak-cell preparation, then one injection pass over the
	// serialized weight image.
	inj := errmodel.NewInjector(fw.ErrKind, in.profile)
	_, end = tr.start("errmodel.prepare", -1)
	inj.Prepare(layout)
	end()
	w := in.net.WeightsFlat()
	img := make([]byte, fw.Format.ImageSize(len(w), layout.UnitBytes()))
	if err := quant.Serialize(w, fw.Format, img); err != nil {
		return err
	}
	_, end = tr.start("errmodel.inject", -1)
	flips := inj.Inject(img, layout, r.Derive("inject"))
	end()
	tr.count("errmodel.inject.flipped_bits", float64(flips))
	if err := quant.Deserialize(img, fw.Format, w); err != nil {
		return err
	}
	_, end = tr.start("snn.set_weights", -1)
	err = clone.SetWeightsFlat(w)
	end()
	if err != nil {
		return err
	}

	// Energy replay (memctrl + power): one weight-streaming pass.
	_, end = tr.start("memctrl.replay", -1)
	ctl, err := memctrl.New(fw.Geom, fw.Circuit.Timing(in.voltage))
	if err != nil {
		end()
		return err
	}
	stats := ctl.ReplayReads(layout.AccessStream())
	mj := fw.Power.Energy(stats.Tally, in.voltage).TotalMJ()
	end()
	tr.count("memctrl.replay.accesses", float64(stats.Accesses()))
	if in.wantEnergyMJ != 0 && mj != in.wantEnergyMJ {
		return wrongf("replay probe integrated %g mJ, the program %g mJ", mj, in.wantEnergyMJ)
	}
	return nil
}

// probeStep times Phase B alone (the LIF step plus lateral inhibition)
// over inference presentations of the first test samples. Phase A
// drives are accumulated outside the timed calls.
func probeStep(tr *tracer, net *snn.Network, trains []coding.Train) {
	if len(trains) > stepProbeSamples {
		trains = trains[:stepProbeSamples]
	}
	pool := net.Clone().Pool
	neurons := net.Cfg.Neurons
	var drives [][]float32
	for _, t := range trains {
		for _, active := range t {
			d := make([]float32, neurons)
			for _, i := range active {
				numeric.AddTo(d, net.W.Row(int(i)))
			}
			drives = append(drives, d)
		}
	}
	buf := make([]int32, 0, neurons)
	steps := net.Cfg.Steps
	_, end := tr.start("neuron.step", -1)
	for i, d := range drives {
		if i%steps == 0 {
			pool.ResetState()
		}
		spikes := pool.Step(d, buf)
		if len(spikes) > 0 {
			pool.Inhibit(spikes, net.Cfg.Inhibition)
		}
	}
	end()
	tr.count("neuron.step.calls", float64(len(drives)))
}

// wrongError marks an op or probe whose output failed its check, as
// opposed to one that returned an error.
type wrongError struct{ msg string }

func (e *wrongError) Error() string { return "wrong output: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongError{fmt.Sprintf(format, args...)}
}
