package api

import (
	"fmt"
	"time"
)

// JobEvent is one thing that can happen to a job. Together with the job's
// current phase it selects a row of the lifecycle table below — the only
// definition of which phase changes exist and what each does to a
// JobStatus. Every writer (state.Cluster.TransitionJob, and through it
// the scheduler's bind, the kubelets, the controller, boot/drain
// recovery and the simulator) goes through JobStatus.Apply; a new phase
// change is a new row here, not a new store update somewhere else.
type JobEvent string

const (
	JobEventBind    JobEvent = "bind"    // scheduler: a node reserved for the job
	JobEventClaim   JobEvent = "claim"   // kubelet: the container starts
	JobEventSucceed JobEvent = "succeed" // kubelet: the container exited cleanly
	JobEventFail    JobEvent = "fail"    // kubelet: the container exited with an error
	JobEventAbort   JobEvent = "abort"   // kubelet: the container was killed for a requested cancel
	JobEventCancel  JobEvent = "cancel"  // user: DELETE /v1/jobs/{name}
	JobEventRequeue JobEvent = "requeue" // controller, boot, drain: the job's node or container is gone
	JobEventRetry   JobEvent = "retry"   // controller: a failed job with retry budget left
)

// JobEvents lists every event — with JobPhases, the table's two axes.
var JobEvents = []JobEvent{JobEventBind, JobEventClaim, JobEventSucceed, JobEventFail,
	JobEventAbort, JobEventCancel, JobEventRequeue, JobEventRetry}

// jobEffect is a set of field effects a table row has on the JobStatus.
type jobEffect uint8

const (
	setNode       jobEffect = 1 << iota // Node, Score ← the input's
	clearNode                           // Node ← ""
	countAttempt                        // Attempts++
	stampStart                          // StartedAt ← now
	stampFinish                         // FinishedAt ← now
	clearStamps                         // StartedAt, FinishedAt ← nil
	requestCancel                       // CancelRequested ← true

	// toPending is the one meaning of "back to the queue".
	toPending = clearNode | clearStamps
)

type jobCell struct {
	from JobPhase
	ev   JobEvent
}

type jobRule struct {
	to      JobPhase
	effects jobEffect
	reason  string // the cluster event to record ("" = none)
	message string // Status.Message when the caller gives none ("" = keep)
}

// jobLifecycle is the (from, event) → to table. A cell that is absent is
// an illegal transition; terminal phases accept only retry, from Failed.
var jobLifecycle = map[jobCell]jobRule{
	{JobPending, JobEventBind}:      {JobScheduled, setNode, "Scheduled", ""},
	{JobScheduled, JobEventClaim}:   {JobRunning, countAttempt | stampStart, "", ""},
	{JobRunning, JobEventSucceed}:   {JobSucceeded, stampFinish, "Succeeded", ""},
	{JobRunning, JobEventFail}:      {JobFailed, stampFinish, "Failed", ""},
	{JobRunning, JobEventAbort}:     {JobCancelled, stampFinish, "Cancelled", ""},
	{JobPending, JobEventCancel}:    {JobCancelled, stampFinish, "Cancelled", "cancelled while pending"},
	{JobScheduled, JobEventCancel}:  {JobCancelled, clearNode | stampFinish, "Cancelled", "cancelled before execution started"},
	{JobRunning, JobEventCancel}:    {JobRunning, requestCancel, "CancelRequested", "cancellation requested; the node's kubelet aborts the container"},
	{JobScheduled, JobEventRequeue}: {JobPending, toPending, "Requeued", ""},
	{JobRunning, JobEventRequeue}:   {JobPending, toPending, "Requeued", ""},
	{JobFailed, JobEventRetry}:      {JobPending, toPending, "Retrying", ""},
}

// IllegalTransitionError reports an event the lifecycle table has no row
// for in the job's current phase — or, when the caller named the node it
// believes owns the job, a job that is no longer on that node.
type IllegalTransitionError struct {
	Phase JobPhase
	Event JobEvent
	Node  string // where the job actually is, when ownership was the mismatch
}

func (e IllegalTransitionError) Error() string {
	if e.Node != "" {
		return fmt.Sprintf("api: %s does not apply: the job is %s on node %s", e.Event, e.Phase, e.Node)
	}
	return fmt.Sprintf("api: %s does not apply to a %s job", e.Event, e.Phase)
}

// JobInput carries what an event knows beyond its name.
type JobInput struct {
	Now time.Time
	// Node is the node a setNode row (bind) assigns. For every other row a
	// non-empty Node is an ownership check: the job must still be on it.
	Node    string
	Score   float64 // bind only
	Message string  // the new Status.Message ("" = the row's default, else unchanged)
}

// Apply moves the status through one lifecycle event and returns the
// cluster event reason to record ("" = none), or returns
// IllegalTransitionError and leaves the status untouched. A requeue of a
// running job whose user asked for cancellation is an abort: the
// container that was to be killed is gone with its node, so the
// cancellation is complete, not lost.
func (s *JobStatus) Apply(ev JobEvent, in JobInput) (reason string, err error) {
	if ev == JobEventRequeue && s.Phase == JobRunning && s.CancelRequested {
		ev = JobEventAbort
		if in.Message != "" {
			in.Message += "; "
		}
		in.Message += "cancellation completed"
	}
	rule, ok := jobLifecycle[jobCell{s.Phase, ev}]
	if !ok {
		return "", IllegalTransitionError{Phase: s.Phase, Event: ev}
	}
	if rule.effects&setNode == 0 && in.Node != "" && s.Node != in.Node {
		return "", IllegalTransitionError{Phase: s.Phase, Event: ev, Node: s.Node}
	}
	s.Phase = rule.to
	if rule.effects&setNode != 0 {
		s.Node, s.Score = in.Node, in.Score
	}
	if rule.effects&clearNode != 0 {
		s.Node = ""
	}
	if rule.effects&countAttempt != 0 {
		s.Attempts++
	}
	if rule.effects&clearStamps != 0 {
		s.StartedAt, s.FinishedAt = nil, nil
	}
	if rule.effects&stampStart != 0 {
		s.StartedAt = &in.Now
	}
	if rule.effects&stampFinish != 0 {
		s.FinishedAt = &in.Now
	}
	if rule.effects&requestCancel != 0 {
		s.CancelRequested = true
	}
	if in.Message != "" {
		s.Message = in.Message
	} else if rule.message != "" {
		s.Message = rule.message
	}
	return rule.reason, nil
}
