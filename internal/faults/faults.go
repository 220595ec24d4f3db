// Package faults is QRIO's fault-injection seam: a registry of named
// fault points threaded through the dependency edges a production
// deployment can lose — the shared HTTP round trip, the Meta-Server
// scorer, the kubelet container runtime, the WAL append path and the
// archive spill writer. A point that is not enabled costs one atomic load
// (the registry tracks how many points are armed), so the hooks stay in
// production builds; tests and the qrio daemon's -faults flag arm them to
// rehearse outages deterministically.
//
// Three failure modes are injectable per point, each with a seeded
// trigger probability:
//
//   - error:   the call fails immediately with an *InjectedError
//   - latency: the call is delayed (context-aware) before proceeding
//   - hang:    the call blocks until its context is cancelled — the
//     stuck-dependency case retry deadlines must bound
//
// Probabilistic draws go through an explicitly seeded *rand.Rand (the
// repo-wide determinism rule): the same seed and call sequence reproduces
// the same storm.
package faults

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The fault points QRIO threads through its dependency edges. Components
// fire these by name; arming any other name is allowed (the registry is
// just a string keyspace) but reaches nothing.
const (
	// PointHTTPRoundTrip fails/delays every request issued through the
	// shared httpx client transport (the /v1 gateway client).
	PointHTTPRoundTrip = "httpx.roundtrip"
	// PointMetaScore fails/delays Meta-Server scoring calls — the
	// scheduler's ranking dependency.
	PointMetaScore = "meta.score"
	// PointKubeletRuntime fails/delays container runtime invocations on
	// every node.
	PointKubeletRuntime = "kubelet.runtime"
	// PointWALAppend fails WAL appends (the durability layer latches the
	// first error, exactly like a real disk fault).
	PointWALAppend = "wal.append"
	// PointArchiveSpill fails archive spill writes.
	PointArchiveSpill = "archive.spill"
)

// Mode is a fault point's failure behaviour.
type Mode string

const (
	ModeError   Mode = "error"
	ModeLatency Mode = "latency"
	ModeHang    Mode = "hang"
)

// Spec arms one fault point.
type Spec struct {
	// Mode selects the failure behaviour (default ModeError).
	Mode Mode
	// Probability is the per-call trigger chance in (0, 1]; 0 means 1
	// (every call), so the common "always fail" case needs no field.
	Probability float64
	// Latency is the added delay for ModeLatency (default 10ms).
	Latency time.Duration
}

// InjectedError is the error every ModeError trigger returns; tests and
// retry classifiers can identify injected failures with errors.As.
type InjectedError struct{ Point string }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected failure at %s", e.Point)
}

// Registry holds armed fault points. The zero value (and nil) is an
// inert registry: Fire returns nil after one atomic load. One process
// typically shares Default, but tests build private registries so
// parallel packages cannot see each other's storms.
type Registry struct {
	armed atomic.Int32 // number of enabled points: the fast-path gate

	mu     sync.Mutex
	points map[string]Spec
	rng    *rand.Rand
	fired  map[string]int64
}

// Default is the process-wide registry production wiring resolves nil
// registry fields to; the qrio daemon's -faults flag arms points here.
var Default = NewRegistry(1)

// NewRegistry builds an inert registry whose probabilistic draws use the
// given seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{
		points: make(map[string]Spec),
		rng:    rand.New(rand.NewSource(seed)),
		fired:  make(map[string]int64),
	}
}

// or resolves a possibly-nil registry to Default, so components carrying
// an optional *Registry field need no wiring to stay injectable.
func or(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return Default
}

// Enable arms a point. Enabling an already-armed point replaces its spec.
func (r *Registry) Enable(point string, s Spec) {
	r = or(r)
	if s.Mode == "" {
		s.Mode = ModeError
	}
	if s.Probability < 0 || s.Probability > 1 {
		s.Probability = 1
	}
	if s.Mode == ModeLatency && s.Latency <= 0 {
		s.Latency = 10 * time.Millisecond
	}
	r.mu.Lock()
	if r.points == nil {
		r.points = make(map[string]Spec)
	}
	if _, on := r.points[point]; !on {
		r.armed.Add(1)
	}
	r.points[point] = s
	r.mu.Unlock()
}

// Disable disarms a point (no-op when it was not armed).
func (r *Registry) Disable(point string) {
	r = or(r)
	r.mu.Lock()
	if _, on := r.points[point]; on {
		delete(r.points, point)
		r.armed.Add(-1)
	}
	r.mu.Unlock()
}

// Reset disarms every point and clears fire counts.
func (r *Registry) Reset() {
	r = or(r)
	r.mu.Lock()
	r.points = make(map[string]Spec)
	r.fired = make(map[string]int64)
	r.armed.Store(0)
	r.mu.Unlock()
}

// Fired reports how many times a point has triggered (any mode).
func (r *Registry) Fired(point string) int64 {
	r = or(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[point]
}

// Fire evaluates one pass through a fault point. It returns nil unless
// the point is armed and its probability draw triggers; then ModeError
// returns an *InjectedError, ModeLatency sleeps (honouring ctx) and
// returns nil, and ModeHang blocks until ctx is cancelled and returns
// ctx.Err(). Safe on a nil registry (resolves to Default).
func (r *Registry) Fire(ctx context.Context, point string) error {
	r = or(r)
	if r.armed.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	s, on := r.points[point]
	if !on {
		r.mu.Unlock()
		return nil
	}
	if s.Probability > 0 && s.Probability < 1 && r.rng.Float64() >= s.Probability {
		r.mu.Unlock()
		return nil
	}
	if r.fired == nil {
		r.fired = make(map[string]int64)
	}
	r.fired[point]++
	r.mu.Unlock()
	switch s.Mode {
	case ModeLatency:
		t := time.NewTimer(s.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case ModeHang:
		<-ctx.Done()
		return ctx.Err()
	default:
		return &InjectedError{Point: point}
	}
}

// Parse arms points from a flag string of comma-separated entries, each
//
//	point:mode[:probability[:latency]]
//
// e.g. "meta.score:error", "httpx.roundtrip:latency:0.3:50ms",
// "wal.append:error:0.01". Unknown modes or malformed numbers are
// rejected; an empty string is a no-op.
func (r *Registry) Parse(flag string) error {
	flag = strings.TrimSpace(flag)
	if flag == "" {
		return nil
	}
	for _, entry := range strings.Split(flag, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || parts[0] == "" {
			return fmt.Errorf("faults: malformed entry %q (want point:mode[:probability[:latency]])", entry)
		}
		s := Spec{Mode: Mode(parts[1])}
		switch s.Mode {
		case ModeError, ModeLatency, ModeHang:
		default:
			return fmt.Errorf("faults: %s: unknown mode %q (error, latency or hang)", parts[0], parts[1])
		}
		if len(parts) > 2 && parts[2] != "" {
			p, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("faults: %s: probability %q out of [0,1]", parts[0], parts[2])
			}
			s.Probability = p
		}
		if len(parts) > 3 && parts[3] != "" {
			d, err := time.ParseDuration(parts[3])
			if err != nil || d < 0 {
				return fmt.Errorf("faults: %s: bad latency %q", parts[0], parts[3])
			}
			s.Latency = d
		}
		r.Enable(parts[0], s)
	}
	return nil
}

// Armed lists the armed point names, sorted — the daemon logs this at
// startup so an accidentally-armed production fault is loud.
func (r *Registry) Armed() []string {
	r = or(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.points))
	for p := range r.points {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// RoundTripper wraps an http.RoundTripper with a fault point evaluated
// before every request, under the request's context.
func RoundTripper(r *Registry, point string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultRT{reg: or(r), point: point, base: base}
}

type faultRT struct {
	reg   *Registry
	point string
	base  http.RoundTripper
}

func (f *faultRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := f.reg.Fire(req.Context(), f.point); err != nil {
		return nil, err
	}
	return f.base.RoundTrip(req)
}

// Writer wraps an io.Writer with a fault point evaluated before every
// write — the archive spill / WAL substrate hook. Writes carry no
// context, so ModeHang points block until the registry is disarmed only
// via their (background) context: don't arm hang on writer points.
func Writer(r *Registry, point string, w io.Writer) io.Writer {
	return &faultWriter{reg: or(r), point: point, w: w}
}

type faultWriter struct {
	reg   *Registry
	point string
	w     io.Writer
}

func (f *faultWriter) Write(p []byte) (int, error) {
	if err := f.reg.Fire(context.Background(), f.point); err != nil {
		return 0, err
	}
	return f.w.Write(p)
}
