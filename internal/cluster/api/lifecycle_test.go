package api

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// legalMove is one documented cell of the lifecycle table, written out
// independently of jobLifecycle so a changed row has to change twice.
type legalMove struct {
	from JobPhase
	ev   JobEvent
	to   JobPhase

	node     string // Node after the move, starting from "n1" (unbound phases: "")
	attempts int    // Attempts after the move, starting from 1
	started  bool   // StartedAt set after the move
	finished bool   // FinishedAt set after the move
	cancel   bool   // CancelRequested after the move
	reason   string
}

var legalMoves = []legalMove{
	{from: JobPending, ev: JobEventBind, to: JobScheduled, node: "n2", attempts: 1, reason: "Scheduled"},
	{from: JobPending, ev: JobEventCancel, to: JobCancelled, attempts: 1, finished: true, reason: "Cancelled"},
	{from: JobScheduled, ev: JobEventClaim, to: JobRunning, node: "n1", attempts: 2, started: true},
	{from: JobScheduled, ev: JobEventCancel, to: JobCancelled, attempts: 1, finished: true, reason: "Cancelled"},
	{from: JobScheduled, ev: JobEventRequeue, to: JobPending, attempts: 1, reason: "Requeued"},
	{from: JobRunning, ev: JobEventSucceed, to: JobSucceeded, node: "n1", attempts: 1, started: true, finished: true, reason: "Succeeded"},
	{from: JobRunning, ev: JobEventFail, to: JobFailed, node: "n1", attempts: 1, started: true, finished: true, reason: "Failed"},
	{from: JobRunning, ev: JobEventAbort, to: JobCancelled, node: "n1", attempts: 1, started: true, finished: true, reason: "Cancelled"},
	{from: JobRunning, ev: JobEventCancel, to: JobRunning, node: "n1", attempts: 1, started: true, cancel: true, reason: "CancelRequested"},
	{from: JobRunning, ev: JobEventRequeue, to: JobPending, attempts: 1, reason: "Requeued"},
	{from: JobFailed, ev: JobEventRetry, to: JobPending, attempts: 1, reason: "Retrying"},
}

var (
	tStart  = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	tFinish = tStart.Add(time.Second)
	tNow    = tStart.Add(time.Minute)
)

// statusIn builds a plausible status for a job sitting in phase: bound
// phases are on n1, started phases carry StartedAt, terminal ones
// FinishedAt, and one attempt has been counted.
func statusIn(phase JobPhase) JobStatus {
	s := JobStatus{Phase: phase, Attempts: 1, Message: "before"}
	if phase != JobPending {
		s.Node, s.Score = "n1", 0.5
	}
	if phase == JobRunning || phase.Terminal() {
		t := tStart
		s.StartedAt = &t
	}
	if phase.Terminal() {
		t := tFinish
		s.FinishedAt = &t
	}
	return s
}

// TestLifecycleTableIsTotal walks all 6 phases × every event: a legal cell
// lands the documented phase and field effects, an illegal one returns the
// typed error and leaves the status untouched.
func TestLifecycleTableIsTotal(t *testing.T) {
	legal := map[jobCell]legalMove{}
	for _, m := range legalMoves {
		legal[jobCell{m.from, m.ev}] = m
	}
	if len(legal) != len(jobLifecycle) {
		t.Fatalf("the table has %d rows, this test documents %d", len(jobLifecycle), len(legal))
	}
	for _, from := range JobPhases {
		for _, ev := range JobEvents {
			s := statusIn(from)
			before := QuantumJob{Status: s}.DeepCopy().Status
			in := JobInput{Now: tNow}
			if ev == JobEventBind {
				in.Node, in.Score = "n2", 0.9
			}
			reason, err := s.Apply(ev, in)
			want, ok := legal[jobCell{from, ev}]
			if !ok {
				var illegal IllegalTransitionError
				if !errors.As(err, &illegal) || illegal.Phase != from || illegal.Event != ev {
					t.Errorf("%s + %s: err = %v, want IllegalTransitionError", from, ev, err)
				}
				if !reflect.DeepEqual(s, before) || reason != "" {
					t.Errorf("%s + %s: refused but changed the status: %+v → %+v (reason %q)", from, ev, before, s, reason)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s + %s: %v", from, ev, err)
				continue
			}
			if s.Phase != want.to || s.Node != want.node || s.Attempts != want.attempts || s.CancelRequested != want.cancel {
				t.Errorf("%s + %s: got %+v, want phase %s node %q attempts %d cancel %v", from, ev, s, want.to, want.node, want.attempts, want.cancel)
			}
			if (s.StartedAt != nil) != want.started || (s.FinishedAt != nil) != want.finished {
				t.Errorf("%s + %s: stamps started=%v finished=%v, want %v/%v", from, ev, s.StartedAt, s.FinishedAt, want.started, want.finished)
			}
			// A stamp the move set is the input's Now; one it kept is the old one.
			if ev == JobEventClaim && !s.StartedAt.Equal(tNow) {
				t.Errorf("claim stamped StartedAt %v, want %v", s.StartedAt, tNow)
			}
			if want.finished && !s.FinishedAt.Equal(tNow) {
				t.Errorf("%s + %s: FinishedAt %v, want %v", from, ev, s.FinishedAt, tNow)
			}
			if reason != want.reason {
				t.Errorf("%s + %s: reason %q, want %q", from, ev, reason, want.reason)
			}
			if ev == JobEventBind && s.Score != 0.9 {
				t.Errorf("bind kept score %v", s.Score)
			}
		}
	}
}

// TestTerminalPhasesAcceptOnlyRetryFromFailed states the table's edge in
// one place: nothing leaves Succeeded or Cancelled, only retry leaves Failed.
func TestTerminalPhasesAcceptOnlyRetryFromFailed(t *testing.T) {
	for cell := range jobLifecycle {
		if cell.from.Terminal() && cell != (jobCell{JobFailed, JobEventRetry}) {
			t.Errorf("terminal phase %s accepts %s", cell.from, cell.ev)
		}
	}
	if _, ok := jobLifecycle[jobCell{JobFailed, JobEventRetry}]; !ok {
		t.Error("a Failed job cannot be retried")
	}
}

// TestRequeueOfCancelRequestedJobCompletesTheCancel: the one row whose
// target depends on a field — a running job the user already cancelled is
// not resurrected by a requeue.
func TestRequeueOfCancelRequestedJobCompletesTheCancel(t *testing.T) {
	s := statusIn(JobRunning)
	s.CancelRequested = true
	reason, err := s.Apply(JobEventRequeue, JobInput{Now: tNow, Message: "node n1 unavailable"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase != JobCancelled || s.FinishedAt == nil || reason != "Cancelled" {
		t.Fatalf("got %+v (reason %q), want a completed cancellation", s, reason)
	}
	if s.Message != "node n1 unavailable; cancellation completed" {
		t.Fatalf("message = %q", s.Message)
	}
}

// TestOwnershipCheck: a non-bind event that names a node applies only
// while the job is still on that node.
func TestOwnershipCheck(t *testing.T) {
	s := statusIn(JobScheduled)
	before := s
	_, err := s.Apply(JobEventClaim, JobInput{Now: tNow, Node: "n2"})
	var illegal IllegalTransitionError
	if !errors.As(err, &illegal) || illegal.Node != "n1" {
		t.Fatalf("claim from the wrong node: err = %v, want IllegalTransitionError naming n1", err)
	}
	if !reflect.DeepEqual(s, before) {
		t.Fatalf("refused claim changed the status: %+v", s)
	}
	if _, err := s.Apply(JobEventClaim, JobInput{Now: tNow, Node: "n1"}); err != nil {
		t.Fatalf("claim from the owning node: %v", err)
	}
}

// TestMessages: the caller's message wins, then the row's default, else
// the old message stays.
func TestMessages(t *testing.T) {
	for _, tc := range []struct {
		from JobPhase
		ev   JobEvent
		in   string
		want string
	}{
		{JobRunning, JobEventFail, "boom", "boom"},
		{JobPending, JobEventCancel, "", "cancelled while pending"},
		{JobScheduled, JobEventClaim, "", "before"},
	} {
		s := statusIn(tc.from)
		if _, err := s.Apply(tc.ev, JobInput{Now: tNow, Message: tc.in}); err != nil {
			t.Fatal(err)
		}
		if s.Message != tc.want {
			t.Errorf("%s + %s with message %q: got %q, want %q", tc.from, tc.ev, tc.in, s.Message, tc.want)
		}
	}
}
