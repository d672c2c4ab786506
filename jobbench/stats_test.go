package main

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sparkxd"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  float64
		wantK int
		wantQ float64
	}{
		{n: 200, want: 0.90, wantK: 179, wantQ: 0.90}, // 20 beyond: p90 as asked
		{n: 100, want: 0.90, wantK: 89, wantQ: 0.90},  // exactly 10 beyond
		{n: 50, want: 0.90, wantK: 39, wantQ: 0.80},   // capped to p80
		{n: 12, want: 0.90, wantK: 1, wantQ: 2.0 / 12},
		{n: 11, want: 0.90, wantK: 0, wantQ: 1.0 / 11},
		{n: 5, want: 0.90, wantK: 2, wantQ: 0.5}, // no index qualifies: median
	} {
		k, q := tailIndex(tc.n, tc.want)
		if k != tc.wantK || q != tc.wantQ {
			t.Errorf("tailIndex(%d, %v) = %d, %v; want %d, %v", tc.n, tc.want, k, q, tc.wantK, tc.wantQ)
		}
		if tc.n > minBeyond && tc.n-1-k < minBeyond {
			t.Errorf("n=%d: only %d samples beyond index %d", tc.n, tc.n-1-k, k)
		}
	}
	// The reported index is the highest that keeps minBeyond beyond it.
	for n := minBeyond + 1; n < 300; n++ {
		k, _ := tailIndex(n, 0.99)
		if n-1-k != minBeyond {
			t.Fatalf("n=%d: %d beyond the p99 cap, want %d", n, n-1-k, minBeyond)
		}
	}
}

func TestSummarizeKeepsSubMillisecondPrecision(t *testing.T) {
	lat := make([]float64, 40)
	for i := range lat {
		lat[i] = 0.0001 + float64(i)*0.0000125 // 100 µs .. ~0.59 ms
	}
	s := summarize(lat, 0.90)
	if s.n != 40 {
		t.Fatalf("n = %d, want 40", s.n)
	}
	if want := (lat[19] + lat[20]) / 2; s.p50 != want {
		t.Errorf("p50 = %v, want %v", s.p50, want)
	}
	if s.tail != lat[29] || !s.capped || s.tailQ != 0.75 {
		t.Errorf("tail = %v at p%v (capped %v), want %v at p75", s.tail, s.tailQ, s.capped, lat[29])
	}
	if s.p50 == 0 || s.tail < 0.0004 {
		t.Errorf("sub-millisecond values truncated: p50 %v tail %v", s.p50, s.tail)
	}
}

func TestSummarizeSortsACopy(t *testing.T) {
	lat := []float64{3, 1, 2}
	summarize(lat, 0.9)
	if lat[0] != 3 || lat[1] != 1 || lat[2] != 2 {
		t.Fatalf("input reordered: %v", lat)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	children := []interval{
		{10 * ms, 30 * ms},
		{20 * ms, 40 * ms},   // overlaps the first
		{35 * ms, 50 * ms},   // overlaps the second
		{90 * ms, 120 * ms},  // sticks out past the end
		{-5 * ms, 5 * ms},    // starts before the parent
		{60 * ms, 60 * ms},   // empty
		{200 * ms, 300 * ms}, // outside entirely
	}
	// Covered: [0,5] + [10,50] + [90,100] = 55 ms.
	if got := selfTime(parent, children); got != 45*ms {
		t.Fatalf("self time = %v, want 45ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Fatalf("self time without children = %v, want 100ms", got)
	}
	if got := selfTime(parent, []interval{{0, 100 * ms}, {10 * ms, 20 * ms}}); got != 0 {
		t.Fatalf("fully covered self time = %v, want 0", got)
	}
}

func TestTracerSelfUsesDirectChildrenOfATrace(t *testing.T) {
	tr := newTracer()
	at := func(ms int64) int64 { return tr.epoch.UnixNano() + ms*int64(time.Millisecond) }
	spans := []sparkxd.TraceSpan{
		{SpanID: "e", Name: "execute", StartUnixNano: at(0), DurationNanos: 100e6},
		{SpanID: "s", Parent: "e", Name: "stage", StartUnixNano: at(10), DurationNanos: 50e6},
		{SpanID: "i", Parent: "s", Name: "inner", StartUnixNano: at(20), DurationNanos: 10e6}, // grandchild: not subtracted again
		{SpanID: "u", Parent: "e", Name: "upload", StartUnixNano: at(50), DurationNanos: 20e6},
		{SpanID: "o", Parent: "elsewhere", Name: "orphan", StartUnixNano: at(0), DurationNanos: 5e6},
	}
	tr.addTrace(spans, func(sd sparkxd.TraceSpan) string { return sd.Name })
	// execute: 100 ms minus the union of [10,60] and [50,70].
	if got := tr.self("execute"); got != 0.04 {
		t.Errorf("execute self = %v s, want 0.04", got)
	}
	if got := tr.self("stage"); got != 0.04 {
		t.Errorf("stage self = %v s, want 0.04", got)
	}
	if got := tr.busy("stage"); got != 0.05 {
		t.Errorf("stage busy = %v s, want 0.05", got)
	}
	if got := tr.self("orphan"); got != 0.005 {
		t.Errorf("orphan self = %v s, want 0.005", got)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	if got := (ratio{3, 4}).String(); got != "0.7500 (3/4)" {
		t.Errorf("ratio{3,4} = %q", got)
	}
	if got := (ratio{0, 0}); got.value() != 0 || got.String() != "0.0000 (0/0)" {
		t.Errorf("empty base: value %v, %q", got.value(), got.String())
	}
	tr := newTracer()
	tr.count("lease.grants", 12)
	tr.count("lease.acquire.calls", 6)
	for _, m := range perLayer {
		if m.name == "lease.grant_ratio" {
			if b := m.base(tr); b.num != 12 || b.den != 6 || m.value(tr) != 2 {
				t.Errorf("lease.grant_ratio = %v", b)
			}
			return
		}
	}
	t.Fatal("lease.grant_ratio not listed")
}

func TestTallyCountsWrongOutputsAsFailed(t *testing.T) {
	tl := tally{attempted: 10, errored: 2, wrong: 1}
	if tl.failed() != 3 || tl.ok() != 7 {
		t.Fatalf("failed %d ok %d, want 3 and 7", tl.failed(), tl.ok())
	}
	if r := tl.failedRatio(); r.num != 3 || r.den != 10 {
		t.Fatalf("failed ratio = %v, want 3/10", r)
	}
}

// fakeRunner fails op k with an error when k%5 == 0, returns a wrong
// output when k%5 == 1, and has its post-window check reject k%5 == 2.
type fakeRunner struct {
	mu      sync.Mutex
	checked []int
}

func (f *fakeRunner) callers() int                              { return 2 }
func (f *fakeRunner) setup(context.Context, int, *tracer) error { return nil }
func (f *fakeRunner) reference(context.Context) error           { return nil }
func (f *fakeRunner) retrace(context.Context, *tracer) error    { return nil }
func (f *fakeRunner) layers(context.Context, *tracer) error     { return nil }
func (f *fakeRunner) close()                                    {}
func (f *fakeRunner) op(_ context.Context, _, k int, _ *tracer, _ int) error {
	time.Sleep(time.Millisecond)
	switch k % 5 {
	case 0:
		return errors.New("boom")
	case 1:
		return wrongf("bad bytes")
	}
	return nil
}
func (f *fakeRunner) check(_ context.Context, done []int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checked = append(f.checked, done...)
	wrong := 0
	for _, k := range done {
		if k%5 == 2 {
			wrong++
		}
	}
	return wrong, nil
}

func TestRunWindowFailureAccounting(t *testing.T) {
	f := &fakeRunner{}
	w, err := runWindow(context.Background(), f, 50*time.Millisecond, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := w.next
	if w.t.attempted != n {
		t.Fatalf("attempted %d, but %d ops were issued", w.t.attempted, n)
	}
	var errored, wrong, returned int
	for k := 0; k < n; k++ {
		switch k % 5 {
		case 0:
			errored++
		case 1:
			wrong++
		case 2:
			wrong++
			returned++
		default:
			returned++
		}
	}
	if w.t.errored != errored || w.t.wrong != wrong {
		t.Fatalf("errored %d wrong %d, want %d and %d", w.t.errored, w.t.wrong, errored, wrong)
	}
	// Failed ops are not checked and have no latency sample; wrong ones
	// completed and have one.
	if len(f.checked) != returned {
		t.Errorf("checked %d ops of %d", len(f.checked), n)
	}
	if len(w.lat) != n-errored {
		t.Errorf("%d latency samples, want %d", len(w.lat), n-errored)
	}
	if w.t.ok() != n-errored-wrong {
		t.Errorf("ok %d, want %d", w.t.ok(), n-errored-wrong)
	}
}
