package faults

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestErrorMode pins the default behaviour: an armed point with no
// probability fires on every call, returns *InjectedError carrying the
// point name, and counts fires; disarming silences it again.
func TestErrorMode(t *testing.T) {
	r := NewRegistry(1)
	ctx := context.Background()

	if err := r.Fire(ctx, PointMetaScore); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	r.Enable(PointMetaScore, Spec{})
	err := r.Fire(ctx, PointMetaScore)
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Point != PointMetaScore {
		t.Fatalf("armed error point: got %v, want *InjectedError{%s}", err, PointMetaScore)
	}
	if got := r.Fired(PointMetaScore); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
	// Other points stay inert while one is armed.
	if err := r.Fire(ctx, PointWALAppend); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
	r.Disable(PointMetaScore)
	if err := r.Fire(ctx, PointMetaScore); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if armed := r.Armed(); len(armed) != 0 {
		t.Fatalf("Armed after disable = %v", armed)
	}
}

// TestProbabilityDeterminism pins the repo determinism rule: two
// registries with the same seed produce the same fire pattern, and the
// trigger frequency tracks the configured probability.
func TestProbabilityDeterminism(t *testing.T) {
	const n = 1000
	pattern := func(seed int64) []bool {
		r := NewRegistry(seed)
		r.Enable(PointHTTPRoundTrip, Spec{Probability: 0.3})
		out := make([]bool, n)
		for i := range out {
			out[i] = r.Fire(context.Background(), PointHTTPRoundTrip) != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired < n*2/10 || fired > n*4/10 {
		t.Fatalf("probability 0.3 fired %d/%d times", fired, n)
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical patterns")
	}
}

// TestLatencyMode checks the delay actually happens and that a cancelled
// context cuts it short with ctx.Err().
func TestLatencyMode(t *testing.T) {
	r := NewRegistry(1)
	r.Enable(PointKubeletRuntime, Spec{Mode: ModeLatency, Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := r.Fire(context.Background(), PointKubeletRuntime); err != nil {
		t.Fatalf("latency fire: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency fire returned after %s, want >= 20ms", d)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Enable(PointKubeletRuntime, Spec{Mode: ModeLatency, Latency: time.Hour})
	if err := r.Fire(ctx, PointKubeletRuntime); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency fire: got %v, want context.Canceled", err)
	}
}

// TestHangMode checks a hang point blocks until its context ends — the
// stuck-dependency case per-attempt deadlines exist for.
func TestHangMode(t *testing.T) {
	r := NewRegistry(1)
	r.Enable(PointMetaScore, Spec{Mode: ModeHang})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	err := r.Fire(ctx, PointMetaScore)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang fire: got %v, want deadline exceeded", err)
	}
	if early := deadline.Sub(time.Now()); early > 0 {
		t.Fatalf("hang returned %s before its context's deadline", early)
	}
}

// TestParse covers the -faults flag grammar: full entries, defaults, and
// each rejection class.
func TestParse(t *testing.T) {
	r := NewRegistry(1)
	if err := r.Parse(""); err != nil {
		t.Fatalf("empty flag: %v", err)
	}
	spec := "meta.score:error, httpx.roundtrip:latency:0.25:50ms ,wal.append:error:0.5"
	if err := r.Parse(spec); err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	want := []string{"httpx.roundtrip", "meta.score", "wal.append"}
	got := r.Armed()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Armed = %v, want %v", got, want)
	}

	for _, bad := range []string{
		"meta.score",               // missing mode
		":error",                   // missing point
		"meta.score:explode",       // unknown mode
		"meta.score:error:1.5",     // probability out of range
		"meta.score:error:x",       // malformed probability
		"meta.score:latency:1:-5s", // negative latency
		"meta.score:latency:1:soon",
	} {
		if err := NewRegistry(1).Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestResetAndReplace: re-enabling replaces the spec without double
// counting armed points; Reset clears everything.
func TestResetAndReplace(t *testing.T) {
	r := NewRegistry(1)
	r.Enable(PointWALAppend, Spec{Probability: 1})
	r.Enable(PointWALAppend, Spec{Mode: ModeLatency, Latency: time.Millisecond})
	if err := r.Fire(context.Background(), PointWALAppend); err != nil {
		t.Fatalf("replaced spec should be latency (nil error), got %v", err)
	}
	r.Reset()
	if len(r.Armed()) != 0 || r.Fired(PointWALAppend) != 0 {
		t.Fatalf("Reset left state: armed=%v fired=%d", r.Armed(), r.Fired(PointWALAppend))
	}
}

// TestNilRegistryResolvesToDefault: components carry optional *Registry
// fields; a nil receiver must route to faults.Default so the -faults flag
// reaches unwired components.
func TestNilRegistryResolvesToDefault(t *testing.T) {
	Default.Reset()
	t.Cleanup(Default.Reset)
	var r *Registry
	r.Enable("test.point", Spec{})
	if err := r.Fire(context.Background(), "test.point"); err == nil {
		t.Fatal("nil registry did not reach Default's armed point")
	}
	if Default.Fired("test.point") != 1 {
		t.Fatalf("Default.Fired = %d, want 1", Default.Fired("test.point"))
	}
}

// TestWriter wraps an io.Writer: armed → injected error and the payload
// never reaches the substrate; disarmed → passthrough.
func TestWriter(t *testing.T) {
	r := NewRegistry(1)
	var sb strings.Builder
	w := Writer(r, PointArchiveSpill, &sb)

	r.Enable(PointArchiveSpill, Spec{})
	if _, err := io.WriteString(w, "lost"); err == nil {
		t.Fatal("armed writer accepted a write")
	}
	if sb.Len() != 0 {
		t.Fatalf("failed write reached substrate: %q", sb.String())
	}
	r.Disable(PointArchiveSpill)
	if _, err := io.WriteString(w, "kept"); err != nil {
		t.Fatalf("disarmed writer: %v", err)
	}
	if sb.String() != "kept" {
		t.Fatalf("substrate = %q, want %q", sb.String(), "kept")
	}
}

// TestRoundTripper wraps a transport: armed → request fails before the
// wire; disarmed → the backend answers.
func TestRoundTripper(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits++
	}))
	defer srv.Close()

	r := NewRegistry(1)
	hc := &http.Client{Transport: RoundTripper(r, PointHTTPRoundTrip, nil)}
	r.Enable(PointHTTPRoundTrip, Spec{})
	if _, err := hc.Get(srv.URL); err == nil {
		t.Fatal("armed round trip succeeded")
	}
	if hits != 0 {
		t.Fatalf("failed round trip reached the server %d times", hits)
	}
	r.Disable(PointHTTPRoundTrip)
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("disarmed round trip: %v", err)
	}
	resp.Body.Close()
	if hits != 1 {
		t.Fatalf("server hits = %d, want 1", hits)
	}
}
