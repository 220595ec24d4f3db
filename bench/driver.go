package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
	"qrio/internal/httpx"
)

// Job phases within a run: which part of the plan a job belongs to.
const (
	phaseSetup  = "setup"
	phaseWindow = "window"
)

// jobRec is everything the harness learns about one submitted job. All
// fields are guarded by tracker.mu once the record is registered.
type jobRec struct {
	name   string
	phase  string
	index  int
	client int // closed-loop logical client
	req    client.SubmitRequest

	due, sent, acked time.Time
	submitErr        error

	// Client-observed stage boundaries from the watch stream, and the
	// server's own StartedAt/FinishedAt (same machine, same clock).
	seenScheduled, seenRunning, seenTerminal time.Time
	startedAt, finishedAt                    time.Time

	last      api.JobPhase
	final     api.JobPhase
	terminals int // transitions into a terminal phase (must be exactly 1)
	requeues  int // transitions back to Pending
	attempts  int
	node      string
	minQubits int
	polled    bool // terminal state recovered by GET, not seen on the stream
	done      chan struct{}
}

// tracker is the shared job table the watch stream feeds.
type tracker struct {
	mu     sync.Mutex
	jobs   map[string]*jobRec
	all    []*jobRec
	events int
}

func newTracker() *tracker {
	return &tracker{jobs: make(map[string]*jobRec)}
}

func (t *tracker) register(phase string, index, clientID int, req client.SubmitRequest, due time.Time) *jobRec {
	r := &jobRec{
		name: req.JobName, phase: phase, index: index, client: clientID,
		req: req, due: due, done: make(chan struct{}),
	}
	t.mu.Lock()
	t.jobs[r.name] = r
	t.all = append(t.all, r)
	t.mu.Unlock()
	return r
}

// observe applies one watch event, stamped with the instant the harness
// read it off the stream.
func (t *tracker) observe(ev client.WatchEvent, now time.Time) {
	if ev.Job == nil || ev.Type == client.EventDeleted {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	r := t.jobs[ev.Job.Name]
	if r == nil {
		return
	}
	r.apply(ev.Job, now)
}

// apply folds a job snapshot into its record (tracker.mu held).
func (r *jobRec) apply(j *client.Job, now time.Time) {
	st := j.Status
	r.attempts = st.Attempts
	if st.Phase == r.last {
		return
	}
	prev := r.last
	r.last = st.Phase
	switch st.Phase {
	case api.JobPending:
		if prev != "" {
			r.requeues++
		}
		return
	case api.JobScheduled:
		if r.seenScheduled.IsZero() {
			r.seenScheduled = now
		}
	case api.JobRunning:
		if r.seenRunning.IsZero() {
			r.seenRunning = now
		}
	}
	if st.Phase.Terminal() {
		r.terminals++
		r.final = st.Phase
		r.node = st.Node
		r.minQubits = j.Spec.Requirements.MinQubits
		if st.StartedAt != nil {
			r.startedAt = *st.StartedAt
		}
		if st.FinishedAt != nil {
			r.finishedAt = *st.FinishedAt
		}
		if r.seenTerminal.IsZero() {
			r.seenTerminal = now
			close(r.done)
		}
	}
}

// engine drives one deployment: one keep-alive API connection for every
// request the harness makes plus one watch stream — as many connections as
// the box has cores, so the generator cannot out-parallel the daemon it
// shares them with.
type engine struct {
	api  *client.Client
	plan *plan
	trk  *tracker

	window time.Duration
	start  time.Time // start of the measured window
	end    time.Time

	// late is how long after its due instant each open-loop request was
	// actually sent.
	late []time.Duration
	// clientLast is, per closed-loop client, when its last job finished.
	clientLast []time.Time
	// exhausted reports that the closed-loop stream ran dry before the
	// window ended (MaxRate too low for this machine).
	exhausted atomic.Bool

	watchCancel context.CancelFunc
	watchDone   chan struct{}
}

// newAPIClient builds the harness's single-connection client: no retries
// (a retried submit would hide a failure and distort the ack time).
func newAPIClient(baseURL string) *client.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     90 * time.Second,
	}
	return &client.Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		Retry:   httpx.RetryPolicy{MaxAttempts: 1},
	}
}

func newEngine(baseURL string, p *plan, window time.Duration) *engine {
	return &engine{api: newAPIClient(baseURL), plan: p, trk: newTracker(), window: window}
}

// openWatch starts the stream that observes every stage transition.
func (e *engine) openWatch(ctx context.Context) error {
	wctx, cancel := context.WithCancel(ctx)
	events, err := e.api.Watch(wctx, client.WatchOptions{Kind: "job", Reconnect: true})
	if err != nil {
		cancel()
		return fmt.Errorf("opening watch stream: %w", err)
	}
	e.watchCancel = cancel
	e.watchDone = make(chan struct{})
	go func() {
		defer close(e.watchDone)
		for ev := range events {
			e.trk.observe(ev, time.Now())
		}
	}()
	return nil
}

func (e *engine) closeWatch() {
	if e.watchCancel != nil {
		e.watchCancel()
		<-e.watchDone
		e.watchCancel = nil
	}
}

// submit sends one registered job and stamps its send and ack instants.
func (e *engine) submit(ctx context.Context, r *jobRec) error {
	sent := time.Now()
	_, err := e.api.Submit(ctx, r.req)
	acked := time.Now()
	e.trk.mu.Lock()
	r.sent, r.acked, r.submitErr = sent, acked, err
	e.trk.mu.Unlock()
	return err
}

// awaitAll blocks until every record is terminal or the deadline passes,
// then falls back to one GET per straggler (a watch stream that dropped an
// event must not turn a finished job into a failure). It returns how many
// jobs never finished.
func (e *engine) awaitAll(ctx context.Context, recs []*jobRec, deadline time.Time) int {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	expired := false
	for _, r := range recs {
		if expired {
			break
		}
		e.trk.mu.Lock()
		skip := r.submitErr != nil
		e.trk.mu.Unlock()
		if skip {
			continue
		}
		select {
		case <-r.done:
		case <-timer.C:
			expired = true
		case <-ctx.Done():
			expired = true
		}
	}
	unfinished := 0
	for _, r := range recs {
		select {
		case <-r.done:
			continue
		default:
		}
		e.trk.mu.Lock()
		failedSubmit := r.submitErr != nil
		e.trk.mu.Unlock()
		if failedSubmit {
			continue
		}
		j, err := e.api.Get(ctx, r.name)
		now := time.Now()
		e.trk.mu.Lock()
		if err == nil && j.Status.Phase.Terminal() && r.seenTerminal.IsZero() {
			r.polled = true
			r.apply(&j, now)
		}
		if r.seenTerminal.IsZero() {
			unfinished++
		}
		e.trk.mu.Unlock()
	}
	return unfinished
}

// runSetup runs the discarded warm-up jobs. It belongs to setup_s.
func (e *engine) runSetup(ctx context.Context) error {
	recs := make([]*jobRec, 0, len(e.plan.Setup))
	for i, req := range e.plan.Setup {
		r := e.trk.register(phaseSetup, i, 0, req, time.Now())
		recs = append(recs, r)
		if err := e.submit(ctx, r); err != nil {
			return fmt.Errorf("set-up job %s refused: %w", r.name, err)
		}
	}
	if n := e.awaitAll(ctx, recs, time.Now().Add(60*time.Second)); n > 0 {
		return fmt.Errorf("%d of %d set-up jobs never finished", n, len(recs))
	}
	return nil
}

// runWindow offers the measured load for exactly e.window; drain then
// waits for every job that was due inside it.
func (e *engine) runWindow(ctx context.Context) {
	e.start = time.Now()
	e.end = e.start.Add(e.window)
	switch e.plan.Spec.Kind {
	case openLoop:
		e.runOpenLoop(ctx)
	case closedLoop:
		e.runClosedLoop(ctx)
	}
}

func (e *engine) runOpenLoop(ctx context.Context) {
	var prevAcked time.Time
	for i, rq := range e.plan.Window {
		due := e.start.Add(rq.Due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return
			}
		}
		r := e.trk.register(phaseWindow, i, 0, rq.Req, due)
		// Lateness is the generator's own: measured from the first instant
		// the request could have gone out — its due time or, on this one
		// serial connection, the previous ack if that came later. (The
		// wait behind a slow ack is the daemon's and is in the job's
		// latency, which runs from the due time.)
		free := due
		if prevAcked.After(free) {
			free = prevAcked
		}
		e.late = append(e.late, time.Since(free))
		e.submit(ctx, r) // a refusal is recorded on the job and counted as failed
		prevAcked = time.Now()
	}
	if d := time.Until(e.end); d > 0 {
		time.Sleep(d)
	}
}

func (e *engine) runClosedLoop(ctx context.Context) {
	n := e.plan.Spec.Clients
	e.clientLast = make([]time.Time, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(e.end) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(e.plan.Window) {
					e.exhausted.Store(true)
					return
				}
				r := e.trk.register(phaseWindow, i, c, e.plan.Window[i].Req, time.Now())
				if err := e.submit(ctx, r); err != nil {
					continue
				}
				select {
				case <-r.done:
					e.clientLast[c] = time.Now()
				case <-time.After(e.plan.Spec.Limit + 10*time.Second):
					// Left for the drain's GET fallback to classify.
					return
				case <-ctx.Done():
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// drain waits for every admitted job to reach a terminal phase and returns
// how many never did.
func (e *engine) drain(ctx context.Context) int {
	e.trk.mu.Lock()
	recs := append([]*jobRec(nil), e.trk.all...)
	e.trk.mu.Unlock()
	return e.awaitAll(ctx, recs, time.Now().Add(e.plan.Spec.Limit+10*time.Second))
}
