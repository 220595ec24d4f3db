package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"qrio/client"
	"qrio/internal/cluster/api"
)

// auditReport collects every violated output condition; an empty report
// means the run's numbers may be trusted.
type auditReport struct {
	Errors       []string `json:"errors,omitempty"`
	JobsChecked  int      `json:"jobsChecked"`
	LogsSampled  int      `json:"logsSampled"`
	WatchEvents  int      `json:"watchEvents"`
	PolledStates int      `json:"polledStates"`
}

func (a *auditReport) failf(format string, args ...any) {
	// One message per kind of violation is enough to fail the run; cap the
	// list so a systemic failure does not print thousands of lines.
	if len(a.Errors) < 20 {
		a.Errors = append(a.Errors, fmt.Sprintf(format, args...))
	}
}

// audit checks the run's outputs against the live deployment:
//
//   - every acked job reached exactly one terminal phase and it is
//     Succeeded, both on the watch stream and in the daemon's job list;
//   - a 1-in-10 sample of execution logs has counts summing to the
//     requested shots, a fidelity in (0, 1] and a node wide enough;
//   - every node ends with no running job and no reserved CPU or memory;
//   - durability shows no latched WAL or spill error and health is ok.
func (e *engine) audit(ctx context.Context) auditReport {
	var rep auditReport
	e.trk.mu.Lock()
	recs := append([]*jobRec(nil), e.trk.all...)
	rep.WatchEvents = e.trk.events
	e.trk.mu.Unlock()

	listed, err := e.api.List(ctx, client.ListOptions{})
	if err != nil {
		rep.failf("listing jobs: %v", err)
	}
	server := make(map[string]*client.Job, len(listed.Items))
	for i := range listed.Items {
		server[listed.Items[i].Name] = &listed.Items[i]
	}

	var sample []*jobRec
	e.trk.mu.Lock()
	for _, r := range recs {
		if r.polled {
			rep.PolledStates++
		}
		if r.submitErr != nil {
			rep.failf("job %s: submit refused: %v", r.name, r.submitErr)
			continue
		}
		rep.JobsChecked++
		const want = api.JobSucceeded
		switch {
		case r.terminals == 0:
			rep.failf("job %s: never reached a terminal phase (last seen %q)", r.name, r.last)
		case r.terminals > 1:
			rep.failf("job %s: reached a terminal phase %d times", r.name, r.terminals)
		case r.final != want:
			rep.failf("job %s: ended %s, want %s", r.name, r.final, want)
		}
		if err == nil {
			if sj, ok := server[r.name]; !ok {
				rep.failf("job %s: acked but absent from GET /v1/jobs", r.name)
			} else if sj.Status.Phase != want {
				rep.failf("job %s: daemon reports %s, want %s", r.name, sj.Status.Phase, want)
			}
		}
		if r.phase == phaseWindow && r.final == want && r.index%10 == 0 {
			sample = append(sample, r)
		}
	}
	e.trk.mu.Unlock()

	// Node widths for the MinQubits check, and the end-state accounting.
	// A release can trail the terminal event by a scheduling tick, so the
	// accounting check polls briefly before it fails.
	var nodes []client.Node
	deadline := time.Now().Add(3 * time.Second)
	for {
		nodes, err = e.api.Nodes(ctx)
		if err != nil {
			rep.failf("listing nodes: %v", err)
			break
		}
		if dirtyNode(nodes) == "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if msg := dirtyNode(nodes); msg != "" {
		rep.failf("%s", msg)
	}
	qubits := make(map[string]int, len(nodes))
	for _, n := range nodes {
		q, _ := strconv.Atoi(n.Labels[api.LabelQubits])
		qubits[n.Name] = q
	}

	for _, r := range sample {
		res, err := e.api.Logs(ctx, r.name)
		if err != nil {
			rep.failf("job %s: fetching logs: %v", r.name, err)
			continue
		}
		rep.LogsSampled++
		shots := 0
		for _, n := range res.Counts {
			shots += n
		}
		if shots != r.req.Shots {
			rep.failf("job %s: counts sum to %d, requested %d shots", r.name, shots, r.req.Shots)
		}
		if !(res.Fidelity > 0 && res.Fidelity <= 1+1e-9) {
			rep.failf("job %s: fidelity %g outside (0, 1]", r.name, res.Fidelity)
		}
		if res.Node != r.node {
			rep.failf("job %s: logs name node %q, job status %q", r.name, res.Node, r.node)
		}
		if q := qubits[res.Node]; q < r.minQubits || q < r.req.Requirements.MinQubits {
			rep.failf("job %s: ran on %s with %d qubits, needs %d", r.name, res.Node, q, max(r.minQubits, r.req.Requirements.MinQubits))
		}
	}

	if dur, err := e.api.Durability(ctx); err != nil {
		rep.failf("durability status: %v", err)
	} else {
		if !dur.Enabled || !dur.Fsync {
			rep.failf("deployment is not durable with fsync (enabled=%v fsync=%v)", dur.Enabled, dur.Fsync)
		}
		if dur.WALError != "" {
			rep.failf("latched WAL error: %s", dur.WALError)
		}
		if dur.SpillError != "" {
			rep.failf("latched spill error: %s", dur.SpillError)
		}
	}
	if h, err := e.api.Health(ctx); err != nil {
		rep.failf("health: %v", err)
	} else if !h.OK || h.Status != "ok" {
		rep.failf("health is %q (ok=%v)", h.Status, h.OK)
	}
	return rep
}

// dirtyNode names the first node still holding a job or a reservation.
func dirtyNode(nodes []client.Node) string {
	for _, n := range nodes {
		if len(n.Status.RunningJobs) > 0 || n.Status.CPUMillisInUse != 0 || n.Status.MemoryMBInUse != 0 {
			return fmt.Sprintf("node %s ends with running=%v cpuMillisInUse=%d memoryMBInUse=%d",
				n.Name, n.Status.RunningJobs, n.Status.CPUMillisInUse, n.Status.MemoryMBInUse)
		}
	}
	return ""
}
