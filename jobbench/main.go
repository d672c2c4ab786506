// Command jobbench is SparkXD's job-level benchmark. One invocation
// runs one workload for a fixed time and prints, as the last line of
// standard output, one JSON object with the run's correctness, op
// counts and metrics: the end-to-end metrics by default, the per-layer
// metrics of a traced run with --trace 1. A human-readable report goes
// to standard error. See README.md for the workloads and metrics.
//
//	bash jobbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runner is one workload. The benchmark sets it up setupReps times
// (keeping the last), builds its references, then runs closed-loop
// callers that each issue op after op until the window ends.
type runner interface {
	// callers is the number of closed-loop callers.
	callers() int
	// setup prepares the program for ops: everything a user pays once
	// before the work starts. rep numbers the set-ups of one run.
	setup(ctx context.Context, rep int, tr *tracer) error
	// reference builds what the ops' outputs are checked against,
	// outside both set-up and the timed window.
	reference(ctx context.Context) error
	// op runs op k of the workload's stream on behalf of caller. A
	// *wrongError reports an output that failed its check.
	op(ctx context.Context, caller, k int, tr *tracer, parent int) error
	// check verifies the outputs of the given completed ops after the
	// window and returns how many were wrong.
	check(ctx context.Context, done []int) (int, error)
	// retrace swaps in an instrumented program instance, where the
	// instrumentation has to be installed at set-up.
	retrace(ctx context.Context, tr *tracer) error
	// layers records the per-layer spans and counts that are not taken
	// during the traced window itself (probes, job traces, scrapes).
	layers(ctx context.Context, tr *tracer) error
	// close stops everything the runner started.
	close()
}

var workloads = map[string]func(seed uint64) runner{
	"pipeline":    func(seed uint64) runner { return &pipelineRunner{seed: seed} },
	"sweep":       func(seed uint64) runner { return &sweepRunner{seed: seed} },
	"serve-local": func(seed uint64) runner { return &serveRunner{seed: seed} },
	"serve-fleet": func(seed uint64) runner { return &serveRunner{seed: seed, fleet: true} },
}

// setupReps is how many times a run sets the program up; setup_s is
// their median.
const setupReps = 3

// runDeadline bounds a whole run, so a hung program fails the run
// instead of stalling it.
const runDeadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: pipeline, sweep, serve-local or serve-fleet")
		seed    = fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
		seconds = fs.Float64("seconds", 10, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "jobbench: need --workload pipeline|sweep|serve-local|serve-fleet, --seconds > 0, --trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	r := mk(*seed)
	defer r.close()
	res, err := measure(ctx, r, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "jobbench: %s: %v\n", *name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "jobbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// window is the outcome of one timed window.
type window struct {
	lat     []float64 // latency of every op that returned a result, in s
	t       tally
	elapsed float64 // s, from the first op's start to the last op's end
	cpu     float64 // process user+sys CPU over the window, s
	rss     float64 // peak RSS so far at the window's end, before output checks, MB
	next    int     // index of the next op of the stream
	errs    []string
}

// runWindow runs the workload's callers in closed loops: each issues
// its next op only when the previous one returned, until d has passed.
// Ops started before the deadline finish; they count in the window.
func runWindow(ctx context.Context, r runner, d time.Duration, tr *tracer, first int) (window, error) {
	var (
		mu   sync.Mutex
		w    window
		done []int
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < r.callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				id, end := tr.start("op", -1)
				t0 := time.Now()
				err := r.op(ctx, c, k, tr, id)
				lat := time.Since(t0).Seconds()
				end()
				mu.Lock()
				w.t.attempted++
				var wrong *wrongError
				switch {
				case errors.As(err, &wrong):
					w.t.wrong++
					w.lat = append(w.lat, lat)
				case err != nil:
					w.t.errored++
				default:
					w.lat = append(w.lat, lat)
					done = append(done, k)
				}
				if err != nil && len(w.errs) < 3 {
					w.errs = append(w.errs, fmt.Sprintf("op %d: %v", k, err))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start).Seconds()
	w.cpu = cpuSeconds() - cpu0
	w.rss = maxRSSMB()
	w.next = int(next.Load())
	wrong, err := r.check(ctx, done)
	if err != nil {
		return w, fmt.Errorf("output check: %w", err)
	}
	w.t.wrong += wrong
	if wrong > 0 {
		w.errs = append(w.errs, fmt.Sprintf("%d ops returned artifacts that differ from the in-process result", wrong))
	}
	return w, nil
}

// endToEnd computes the end-to-end metrics of one window.
func endToEnd(w window, setup float64) (map[string]metric, summary) {
	s := summarize(w.lat, 0.90)
	ok := float64(w.t.ok())
	perOp := 0.0
	if ok > 0 {
		perOp = w.cpu / ok
	}
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"ops_per_s":     {ok / w.elapsed, "1/s"},
		"latency_p50_s": {s.p50, "s"},
		"latency_p90_s": {s.tail, "s"},
		"ok_ratio":      {1 - w.t.failedRatio().value(), "ratio"},
		"cpu_s_per_op":  {perOp, "s"},
		"max_rss_mb":    {w.rss, "MB"},
	}, s
}

// measure runs set-up, references and the window(s) of one run.
func measure(ctx context.Context, r runner, d time.Duration, traced bool, log io.Writer) (result, error) {
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		// Collect what earlier set-ups left behind, so they neither
		// slow this one down nor add to the peak RSS.
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(ctx, rep, nil); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := r.reference(ctx); err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	runtime.GC()
	setup := medianOf(setups)
	fmt.Fprintf(log, "set-up: median %.4f s of %v\n", setup, setups)

	if traced {
		d /= 2 // an untraced and a traced half
	}
	w, err := runWindow(ctx, r, d, nil, 0)
	if err != nil {
		return result{}, err
	}
	e2e, s := endToEnd(w, setup)
	report(log, "untraced", w, s, e2e)
	res := result{Correct: w.t.failed() == 0, Attempted: w.t.attempted, Failed: w.t.failed(), Metrics: e2e}
	if !traced {
		return res, nil
	}

	tr := newTracer()
	if err := r.retrace(ctx, tr); err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	tr.reset()
	wt, err := runWindow(ctx, r, d, tr, w.next)
	if err != nil {
		return result{}, err
	}
	te2e, ts := endToEnd(wt, setup)
	report(log, "traced", wt, ts, te2e)
	res.Attempted += wt.t.attempted
	res.Failed += wt.t.failed()
	res.Correct = res.Correct && wt.t.failed() == 0
	if err := r.layers(ctx, tr); err != nil {
		var wrong *wrongError
		if !errors.As(err, &wrong) {
			return result{}, fmt.Errorf("layers: %w", err)
		}
		fmt.Fprintf(log, "layer probe: %v\n", err)
		res.Correct = false
	}
	res.Metrics = layerMetrics(tr)
	for _, name := range []string{"latency_p50_s", "ops_per_s"} {
		m := ratio{te2e[name].Value, e2e[name].Value}
		res.Metrics["tracing.overhead."+name+"_ratio"] = metric{m.value(), "ratio"}
	}
	fmt.Fprintln(log, "tracing overhead (traced / untraced):")
	for _, name := range e2eNames {
		fmt.Fprintf(log, "  %-14s %s\n", name, ratio{te2e[name].Value, e2e[name].Value})
	}
	printLayers(log, tr, res.Metrics)
	return res, nil
}

// e2eNames lists the end-to-end metrics in report order.
var e2eNames = []string{"setup_s", "ops_per_s", "latency_p50_s", "latency_p90_s", "ok_ratio", "cpu_s_per_op", "max_rss_mb"}

// report prints one window's end-to-end figures with their bases.
func report(log io.Writer, label string, w window, s summary, m map[string]metric) {
	fmt.Fprintf(log, "%s window: %.3f s, attempted %d, failed %d (%d errored, %d wrong), failed_ratio %s\n",
		label, w.elapsed, w.t.attempted, w.t.failed(), w.t.errored, w.t.wrong, w.t.failedRatio())
	for _, e := range w.errs {
		fmt.Fprintf(log, "  %s\n", e)
	}
	fmt.Fprintf(log, "  latency over %d samples: p50 %.6f s; p%.1f %.6f s", s.n, s.p50, 100*s.tailQ, s.tail)
	if s.capped {
		fmt.Fprintf(log, " (p90 asked; fewer than %d samples beyond it)", minBeyond)
	}
	fmt.Fprintln(log)
	for _, name := range e2eNames {
		fmt.Fprintf(log, "  %-14s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(log, "  cpu_s_per_op base: %.4f s CPU / %d ops\n", w.cpu, w.t.ok())
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size so far (Linux
// reports it in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
