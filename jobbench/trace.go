package main

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"sparkxd"
)

// tracer keeps the spans and counters of one traced window in memory;
// they are turned into metrics when the run ends. A nil *tracer records
// nothing, so untraced windows run the same code with no overhead
// beyond a nil check.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

// span is one recorded interval, relative to the tracer's epoch.
type span struct {
	name   string
	parent int // index into spans, -1 for a root
	iv     interval
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string]float64)}
}

// reset drops everything recorded so far (set-up traffic), so the
// metrics cover the traced window and what follows it.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.counts = nil, make(map[string]float64)
	t.mu.Unlock()
}

// start opens a span under parent (-1 for none) and returns its index
// and the function that closes it.
func (t *tracer) start(name string, parent int) (int, func()) {
	if t == nil {
		return -1, func() {}
	}
	begin := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, iv: interval{begin, begin}})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id].iv.end = end
		t.mu.Unlock()
	}
}

// addTrace records a job trace's spans under the names rename gives
// them, keeping their parent links. Trace spans carry wall-clock
// starts, so the trace must come from this host.
func (t *tracer) addTrace(spans []sparkxd.TraceSpan, rename func(sparkxd.TraceSpan) string) {
	epoch := t.epoch.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	index := make(map[string]int, len(spans))
	for i, sd := range spans {
		index[sd.SpanID] = len(t.spans) + i
	}
	for _, sd := range spans {
		parent, ok := index[sd.Parent]
		if !ok {
			parent = -1
		}
		iv := interval{time.Duration(sd.StartUnixNano - epoch), time.Duration(sd.EndUnixNano() - epoch)}
		t.spans = append(t.spans, span{name: rename(sd), parent: parent, iv: iv})
	}
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// busy sums the durations of every span with the given name.
func (t *tracer) busy(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.iv.end - s.iv.start
		}
	}
	return d.Seconds()
}

// self sums, over every span with the given name, its duration minus
// the part its direct children cover.
func (t *tracer) self(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.iv)
		}
	}
	var d time.Duration
	for i, s := range t.spans {
		if s.name == name {
			d += selfTime(s.iv, children[i])
		}
	}
	return d.Seconds()
}

// n returns a counter's value.
func (t *tracer) n(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// countingTransport counts and times HTTP round trips by route, so the
// lease protocol and the client API can be measured from outside the
// program. Times cover the round trip up to response headers; SSE
// bodies stream afterwards and are timed by the caller's own span.
type countingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req)
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if route != "" {
		c.tr.count(route+".calls", 1)
		c.tr.count(route+".busy_s", time.Since(start).Seconds())
	}
	return resp, err
}

// routeOf names the fleet and client routes the benchmark reports on
// ("" for the rest).
func routeOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "client.submit"
	case req.Method == http.MethodPost && p == "/v1/leases":
		return "lease.acquire"
	case req.Method == http.MethodPost && strings.HasPrefix(p, "/v1/leases/") && strings.HasSuffix(p, "/events"):
		return "lease.events"
	case req.Method == http.MethodPost && strings.HasPrefix(p, "/v1/leases/") && strings.HasSuffix(p, "/complete"):
		return "lease.complete"
	}
	return ""
}

// timedStore decorates the coordinator's artifact store, counting and
// timing every call.
type timedStore struct {
	sparkxd.ArtifactStore
	tr *tracer
}

func (s timedStore) observe(op string, start time.Time) {
	s.tr.count("store."+op+".calls", 1)
	s.tr.count("store."+op+".busy_s", time.Since(start).Seconds())
}

func (s timedStore) Put(kind string, payload any) (sparkxd.ArtifactKey, error) {
	defer s.observe("put", time.Now())
	return s.ArtifactStore.Put(kind, payload)
}

func (s timedStore) Get(key sparkxd.ArtifactKey) (*sparkxd.ArtifactEnvelope, error) {
	defer s.observe("get", time.Now())
	return s.ArtifactStore.Get(key)
}

func (s timedStore) Stat(key sparkxd.ArtifactKey) (sparkxd.ArtifactInfo, error) {
	defer s.observe("stat", time.Now())
	return s.ArtifactStore.Stat(key)
}
