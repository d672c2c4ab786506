package main

import (
	"fmt"
	"io"
)

// layerMetric is one per-layer metric and how the traced run computes
// it. Layers a workload does not reach read 0: the in-process workloads
// make no HTTP calls, and the kernel probes run only on the in-process
// workloads.
type layerMetric struct {
	name, unit string
	value      func(tr *tracer) float64
	// base, for ratios, prints the numerator and denominator.
	base func(tr *tracer) ratio
}

func busy(name string) layerMetric {
	return layerMetric{name: name + ".busy_s", unit: "s", value: func(tr *tracer) float64 { return tr.busy(name) }}
}

func self(name string) layerMetric {
	return layerMetric{name: name + ".self_s", unit: "s", value: func(tr *tracer) float64 { return tr.self(name) }}
}

func counter(name, unit string) layerMetric {
	return layerMetric{name: name, unit: unit, value: func(tr *tracer) float64 { return tr.n(name) }}
}

func ratioOf(name, num, den string) layerMetric {
	base := func(tr *tracer) ratio { return ratio{tr.n(num), tr.n(den)} }
	return layerMetric{name: name, unit: "ratio", base: base, value: func(tr *tracer) float64 { return base(tr).value() }}
}

// perLayer lists every per-layer metric in report order.
var perLayer = []layerMetric{
	// SDK stages (sparkxd).
	busy("sparkxd.train"), busy("sparkxd.improve"), busy("sparkxd.analyze"),
	busy("sparkxd.map"), busy("sparkxd.evaluate"), busy("sparkxd.energy"), busy("sparkxd.sweep"),
	// Encode (coding + rng).
	busy("coding.encode"),
	counter("coding.encode.calls", "count"),
	counter("coding.encode.spikes", "count"),
	// Train (snn).
	busy("snn.train_epoch"),
	counter("snn.train_epoch.samples", "count"),
	busy("snn.assign_labels"),
	// Evaluation, Phase A + B (snn).
	busy("snn.encode_dataset"), busy("snn.eval_encoded"),
	counter("snn.eval_encoded.samples", "count"),
	// Phase B (neuron).
	busy("neuron.step"),
	counter("neuron.step.calls", "count"),
	// Inject (errmodel).
	busy("errmodel.prepare"), busy("errmodel.inject"),
	counter("errmodel.inject.flipped_bits", "count"),
	// Weight load/map (core, mapping, snn).
	busy("core.map"), busy("snn.set_weights"),
	// Energy replay (memctrl + power).
	busy("memctrl.replay"),
	counter("memctrl.replay.accesses", "count"),
	// Sweep engine.
	busy("engine.scenario"),
	counter("engine.scenarios", "count"),
	ratioOf("engine.profile_cache.hit_ratio", "engine.profile_cache.hits", "engine.profile_cache.lookups"),
	// Job client.
	busy("client.submit"),
	counter("client.submit.calls", "count"),
	busy("client.wait"), busy("client.fetch"),
	// Coordinator.
	self("server.admit"), self("server.queue_wait"), self("server.execute"), self("server.store_artifacts"),
	counter("server.requeued", "count"),
	counter("server.jobs_completed", "count"),
	// Lease protocol over HTTP (fleetapi, worker transport).
	counter("lease.acquire.calls", "count"),
	counter("lease.acquire.busy_s", "s"),
	ratioOf("lease.grant_ratio", "lease.grants", "lease.acquire.calls"),
	self("lease"),
	counter("lease.events.calls", "count"),
	counter("lease.complete.busy_s", "s"),
	// Fleet worker.
	self("worker.execute"), self("worker.artifact_upload"),
	// Job execution (jobrun).
	self("jobrun.warm_build"),
	ratioOf("jobrun.warm_systems.hit_ratio", "jobrun.warm_systems.hits", "jobrun.warm_systems.jobs"),
	self("jobrun.stage.train"), self("jobrun.stage.improve"), self("jobrun.stage.sweep"),
	// Artifact store.
	counter("store.put.calls", "count"),
	counter("store.get.calls", "count"),
	counter("store.put.busy_s", "s"),
	counter("store.get.busy_s", "s"),
	counter("store.stat.calls", "count"),
}

// overheadMetrics are the traced/untraced ratios the traced run adds.
var overheadMetrics = []string{"tracing.overhead.latency_p50_s_ratio", "tracing.overhead.ops_per_s_ratio"}

// layerMetrics computes every per-layer metric of the traced window.
func layerMetrics(tr *tracer) map[string]metric {
	out := make(map[string]metric, len(perLayer)+len(overheadMetrics))
	for _, m := range perLayer {
		out[m.name] = metric{m.value(tr), m.unit}
	}
	return out
}

// printLayers prints the per-layer metrics, ratios with their bases.
func printLayers(log io.Writer, tr *tracer, m map[string]metric) {
	fmt.Fprintln(log, "per-layer metrics (traced window and probes):")
	for _, lm := range perLayer {
		if lm.base != nil {
			fmt.Fprintf(log, "  %-34s %s\n", lm.name, lm.base(tr))
			continue
		}
		fmt.Fprintf(log, "  %-34s %.6g %s\n", lm.name, m[lm.name].Value, lm.unit)
	}
	for _, name := range overheadMetrics {
		fmt.Fprintf(log, "  %-34s %.6g\n", name, m[name].Value)
	}
}
