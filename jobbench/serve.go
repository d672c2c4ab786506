package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparkxd"
	"sparkxd/client"
	"sparkxd/internal/server"
	"sparkxd/internal/worker"
)

// serveCallers is how many closed-loop clients submit jobs.
const serveCallers = 2

// workerName is the fleet worker's name; its spans carry it as their
// process, which tells them apart from the coordinator's.
const workerName = "jobbench-worker"

// serveRunner is the `serve-local` and `serve-fleet` workloads: an
// in-process coordinator behind loopback HTTP, driven by two clients.
type serveRunner struct {
	seed  uint64
	fleet bool

	dir     string
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*client.Client
	stopWk  context.CancelFunc
	wkDone  chan error
	trans   []*http.Transport

	mu      sync.Mutex
	fetched map[int][32]byte   // op -> digest of its fetched artifact
	jobs    map[int]string     // op -> job ID
	refs    map[int]blockRef   // block -> in-process reference digests
	before  map[string]float64 // /metrics at the start of the traced window
}

// blockRef holds the digests of one block's in-process artifacts.
type blockRef struct{ train, sweep [32]byte }

func (r *serveRunner) callers() int { return serveCallers }

// setup starts a coordinator (and, for serve-fleet, a worker) over a
// fresh directory store and runs the warm pass: one job of each kind.
// The worker joins after the warm jobs are queued, so its first lease
// request finds them and set-up does not include an idle poll.
func (r *serveRunner) setup(ctx context.Context, rep int, tr *tracer) error {
	r.close()
	if err := r.start(tr); err != nil {
		return err
	}
	var ids []string
	for _, spec := range warmSpecs(r.seed, rep) {
		st, err := r.clients[0].Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("warm submit: %w", err)
		}
		ids = append(ids, st.ID)
	}
	if r.fleet {
		if err := r.startWorker(tr); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if _, err := r.await(ctx, r.clients[0], id, nil, -1); err != nil {
			return fmt.Errorf("warm job: %w", err)
		}
	}
	return nil
}

// retrace replaces the live instance with one whose store and
// transports are instrumented.
func (r *serveRunner) retrace(ctx context.Context, tr *tracer) error {
	if err := r.setup(ctx, 0, tr); err != nil {
		return err
	}
	var err error
	r.before, err = r.scrape(ctx)
	return err
}

func (r *serveRunner) start(tr *tracer) error {
	dir, err := os.MkdirTemp("", "jobbench-store-")
	if err != nil {
		return err
	}
	r.dir = dir
	st, err := sparkxd.OpenStore(dir)
	if err != nil {
		return err
	}
	if tr != nil {
		st = timedStore{st, tr}
	}
	dispatch := server.DispatchLocal
	if r.fleet {
		dispatch = server.DispatchFleet
	}
	r.srv, err = server.New(server.Config{Store: st, Workers: 2, Dispatch: dispatch})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.srv.Handler()}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	hc := r.httpClient(tr, 0)
	r.clients = nil
	for i := 0; i < serveCallers; i++ {
		c, err := client.New(r.base, client.WithHTTPClient(hc), client.WithSubmitter(fmt.Sprintf("jobbench-%d", i)))
		if err != nil {
			return err
		}
		r.clients = append(r.clients, c)
	}
	r.mu.Lock()
	r.fetched, r.jobs = make(map[int][32]byte), make(map[int]string)
	r.mu.Unlock()
	return nil
}

// httpClient returns a client on its own transport, counted when
// traced. timeout 0 leaves requests bounded by their contexts.
func (r *serveRunner) httpClient(tr *tracer, timeout time.Duration) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	r.trans = append(r.trans, t)
	var rt http.RoundTripper = t
	if tr != nil {
		rt = countingTransport{base: t, tr: tr}
	}
	return &http.Client{Transport: rt, Timeout: timeout}
}

// startWorker joins one worker with the `sparkxd worker` defaults and 2
// slots. Its HTTP client keeps the default 30 s timeout.
func (r *serveRunner) startWorker(tr *tracer) error {
	w, err := worker.New(worker.Config{
		Coordinator: r.base,
		Name:        workerName,
		Slots:       2,
		HTTPClient:  r.httpClient(tr, 30*time.Second),
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stopWk, r.wkDone = cancel, make(chan error, 1)
	go func() { r.wkDone <- w.Run(ctx) }()
	return nil
}

// await follows the job's event stream to its end, then reads the
// terminal status. SSE completion is pushed when the job ends, unlike
// Wait's backoff polling, so latency is not quantized by a poll period.
func (r *serveRunner) await(ctx context.Context, c *client.Client, id string, tr *tracer, parent int) (*sparkxd.JobStatus, error) {
	_, end := tr.start("client.wait", parent)
	defer end()
	if err := c.Events(ctx, id, func(sparkxd.Event) error { return nil }); err != nil {
		return nil, fmt.Errorf("events of %s: %w", id, err)
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return nil, err
	}
	if st.State != sparkxd.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

func (r *serveRunner) reference(context.Context) error { return nil }

// op submits job k, waits for it on its event stream, and fetches its
// result artifact: the trained baseline of a train job, the report of a
// sweep job.
func (r *serveRunner) op(ctx context.Context, caller, k int, tr *tracer, parent int) error {
	c := r.clients[caller]
	spec := serveSpec(r.seed, k)
	_, end := tr.start("client.submit", parent)
	st, err := c.Submit(ctx, spec)
	end()
	if err != nil {
		return err
	}
	done, err := r.await(ctx, c, st.ID, tr, parent)
	if err != nil {
		return err
	}
	role := "baseline"
	if spec.Kind == sparkxd.JobSweep {
		role = "sweep"
	}
	key, ok := done.Artifacts[role]
	if !ok {
		return fmt.Errorf("job %s has no %s artifact", st.ID, role)
	}
	_, end = tr.start("client.fetch", parent)
	var art any
	if role == "sweep" {
		art, err = c.SweepReport(ctx, key)
	} else {
		art, err = c.TrainedModel(ctx, key)
	}
	end()
	if err != nil {
		return err
	}
	sum, err := digest(art)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.fetched[k], r.jobs[k] = sum, st.ID
	r.mu.Unlock()
	return nil
}

func digest(v any) ([32]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// check compares every fetched artifact with the in-process result of
// the same spec, computed here, outside the timed window.
func (r *serveRunner) check(ctx context.Context, done []int) (int, error) {
	if r.refs == nil {
		r.refs = make(map[int]blockRef)
	}
	var missing []int
	for _, k := range done {
		if b := k / serveBlock; !slices.Contains(missing, b) {
			if _, ok := r.refs[b]; !ok {
				missing = append(missing, b)
			}
		}
	}
	refs, err := references(ctx, r.seed, missing)
	if err != nil {
		return 0, err
	}
	for i, b := range missing {
		r.refs[b] = refs[i]
	}
	wrong := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range done {
		ref := r.refs[k/serveBlock]
		want := ref.train
		if k%serveBlock == serveBlock-1 {
			want = ref.sweep
		}
		if r.fetched[k] != want {
			wrong++
		}
	}
	return wrong, nil
}

// references computes the given blocks' references on serveCallers
// goroutines.
func references(ctx context.Context, seed uint64, blocks []int) ([]blockRef, error) {
	out := make([]blockRef, len(blocks))
	errs := make([]error, len(blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveCallers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(blocks); i = int(next.Add(1) - 1) {
				out[i], errs[i] = reference(ctx, seed, blocks[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// reference runs block b's specs in process: the train jobs' baseline,
// and the sweep job's report after Train and ImproveTolerance.
func reference(ctx context.Context, seed uint64, b int) (blockRef, error) {
	var ref blockRef
	spec, err := serveSpec(seed, b*serveBlock+serveBlock-1).Normalized()
	if err != nil {
		return ref, err
	}
	opts, err := spec.Config.Options()
	if err != nil {
		return ref, err
	}
	sys, err := sparkxd.New(opts...)
	if err != nil {
		return ref, err
	}
	p := sys.Pipeline()
	base, err := p.Train(ctx)
	if err != nil {
		return ref, err
	}
	if ref.train, err = digest(base); err != nil {
		return ref, err
	}
	if _, err := p.ImproveTolerance(ctx); err != nil {
		return ref, err
	}
	rep, err := p.Sweep(ctx, *spec.Sweep)
	if err != nil {
		return ref, err
	}
	ref.sweep, err = digest(rep)
	return ref, err
}

// scrape reads the coordinator's /metrics and sums each counter family
// over its label sets; "family{label=value}" keys one labelled series.
func (r *serveRunner) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] += v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			out[series[:i]] += v
		}
	}
	return out, sc.Err()
}

// spanName maps a job-trace span to the layer metric it feeds. The
// coordinator and the worker both emit "execute"; the process tells
// them apart.
func spanName(sd sparkxd.TraceSpan) string {
	switch {
	case sd.Name == "admit":
		return "server.admit"
	case sd.Name == "queue-wait":
		return "server.queue_wait"
	case sd.Name == "execute" && sd.Process == workerName:
		return "worker.execute"
	case sd.Name == "execute":
		return "server.execute"
	case sd.Name == "store-artifacts":
		return "server.store_artifacts"
	case sd.Name == "lease":
		return "lease"
	case sd.Name == "artifact-upload":
		return "worker.artifact_upload"
	case sd.Name == "warm-system-build":
		return "jobrun.warm_build"
	case strings.HasPrefix(sd.Name, "stage:"):
		return "jobrun.stage." + strings.TrimPrefix(sd.Name, "stage:")
	}
	return "job." + sd.Name
}

// collectTraces fetches the trace of every job of the traced window and
// adds its spans to tr.
func (r *serveRunner) collectTraces(ctx context.Context, tr *tracer) (jobs, builds int, err error) {
	r.mu.Lock()
	ids := make([]string, 0, len(r.jobs))
	for _, id := range r.jobs {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	for _, id := range ids {
		t, err := r.clients[0].Trace(ctx, id)
		if err != nil {
			return 0, 0, fmt.Errorf("trace of %s: %w", id, err)
		}
		jobs++
		if t.Span("warm-system-build") != nil {
			builds++
		}
		tr.addTrace(t.Spans, spanName)
	}
	return jobs, builds, nil
}

// layers derives the serving layers' metrics from the job traces, the
// counting transports, the timed store and two /metrics scrapes.
func (r *serveRunner) layers(ctx context.Context, tr *tracer) error {
	jobs, builds, err := r.collectTraces(ctx, tr)
	if err != nil {
		return err
	}
	tr.count("jobrun.warm_systems.jobs", float64(jobs))
	tr.count("jobrun.warm_systems.hits", float64(jobs-builds))
	after, err := r.scrape(ctx)
	if err != nil {
		return err
	}
	for name, series := range map[string]string{
		"server.requeued":       "sparkxd_jobs_requeued_total",
		"server.jobs_completed": "sparkxd_jobs_completed_total",
		"lease.grants":          `sparkxd_leases_total{op="grant"}`,
	} {
		tr.count(name, after[series]-r.before[series])
	}
	return nil
}

// close stops the worker, the HTTP server and the coordinator, and
// removes the store.
func (r *serveRunner) close() {
	if r.stopWk != nil {
		r.stopWk()
		<-r.wkDone
		r.stopWk = nil
	}
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = r.hs.Close() // streams still open after the grace period
		}
		cancel()
		<-r.served
		r.hs = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	for _, t := range r.trans {
		t.CloseIdleConnections()
	}
	r.trans = nil
	if r.dir != "" {
		_ = os.RemoveAll(r.dir) // temporary store
		r.dir = ""
	}
}
