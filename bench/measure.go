package main

import (
	"sort"
	"time"

	"qrio/internal/cluster/api"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCounts is the per-phase request tally of the environment record.
type phaseCounts struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// stageSample is one job's latency split at the client-observed stage
// boundaries. The stages partition [due, terminal seen] exactly: each
// boundary is clamped to be no earlier than the one before it (an event
// can overtake the ack it races with), so per job they sum to the latency.
type stageSample struct {
	job                                 *jobRec
	latency                             time.Duration
	ack, queue, claim, run, lag, submit time.Duration
}

func splitStages(r *jobRec) stageSample {
	clamp := func(t, floor time.Time) time.Time {
		if t.IsZero() || t.Before(floor) {
			return floor
		}
		return t
	}
	b0 := r.due
	b1 := clamp(r.acked, b0)
	b2 := clamp(r.seenScheduled, b1)
	// The claim boundary is the server's own StartedAt (the kubelet stamps
	// it as it picks the job up), so run = FinishedAt − StartedAt is exact.
	// Scheduled has no server timestamp and is seen on the stream a
	// delivery lag late, so a claim wait shorter than that lag (well under
	// a millisecond on an idle box) reads as zero.
	started := r.startedAt
	if started.IsZero() {
		started = r.seenRunning
	}
	b3 := clamp(started, b2)
	b4 := clamp(r.finishedAt, b3)
	b5 := clamp(r.seenTerminal, b4)
	return stageSample{
		job:     r,
		latency: b5.Sub(b0),
		ack:     b1.Sub(b0),
		queue:   b2.Sub(b1),
		claim:   b3.Sub(b2),
		run:     b4.Sub(b3),
		lag:     b5.Sub(b4),
		submit:  r.acked.Sub(r.sent),
	}
}

// measured is what one run's window yields before it is turned into named
// metrics.
type measured struct {
	// population is the measured jobs: every job due in the window that
	// succeeded.
	population []stageSample
	attempted  int     // population size plus jobs that never got that far
	failed     int     // refused + non-Succeeded + never terminal
	okInLimit  int     // Succeeded within the latency limit
	completed  int     // Succeeded at all
	goodput    float64 // see measure for its time base
	phases     map[string]*phaseCounts
}

// measure classifies every job the run submitted. It must run after drain
// (a job that never reached a terminal phase has an empty final phase and
// counts as failed).
//
// Goodput's time base avoids whole-job quantisation. Open loop: window
// start to the last completion. Closed loop: each client's own
// first-send-to-last-completion span, summed as rates — with ~30 jobs in a
// cold-sweep window, counting completions inside a fixed window would move
// 3 % per job straddling its edge.
func (e *engine) measure() measured {
	e.trk.mu.Lock()
	defer e.trk.mu.Unlock()
	m := measured{phases: map[string]*phaseCounts{
		phaseSetup: {}, phaseWindow: {},
	}}
	limit := e.plan.Spec.Limit
	var lastDone time.Time
	perClient := make([]int, max(1, e.plan.Spec.Clients))
	for _, r := range e.trk.all {
		pc := m.phases[r.phase]
		pc.Sent++
		ok := r.submitErr == nil && r.final == api.JobSucceeded && r.terminals == 1
		if ok {
			pc.Succeeded++
		} else {
			pc.Failed++
		}
		if r.phase != phaseWindow {
			continue
		}
		m.attempted++
		if !ok {
			m.failed++
			continue
		}
		s := splitStages(r)
		m.population = append(m.population, s)
		m.completed++
		if s.latency <= limit {
			m.okInLimit++
			perClient[r.client]++
		}
		if r.seenTerminal.After(lastDone) {
			lastDone = r.seenTerminal
		}
	}
	switch e.plan.Spec.Kind {
	case openLoop:
		m.goodput = float64(m.okInLimit) / lastDone.Sub(e.start).Seconds()
	case closedLoop:
		for c, n := range perClient {
			last := e.clientLast[c]
			if last.IsZero() || n == 0 {
				continue
			}
			m.goodput += float64(n) / last.Sub(e.start).Seconds()
		}
	}
	sort.Slice(m.population, func(i, j int) bool {
		return m.population[i].job.due.Before(m.population[j].job.due)
	})
	return m
}

func (m *measured) latenciesMS() []float64 {
	out := make([]float64, len(m.population))
	for i, s := range m.population {
		out[i] = ms(s.latency)
	}
	return out
}

func (m *measured) stageMS(pick func(stageSample) time.Duration) []float64 {
	out := make([]float64, len(m.population))
	for i, s := range m.population {
		out[i] = ms(pick(s))
	}
	return out
}

// endToEnd turns a measured window into the end-to-end metrics. The times
// are stated at the reference host speed (see hostSpeed): divided by how
// much slower than it the host ran during the phase they were measured in.
// With both slowdowns at 1 they are the figures as the clock gave them.
func endToEnd(m measured, d *driven, setupSlow, windowSlow float64) map[string]metric {
	lat := m.latenciesMS()
	cpuPerJob := 0.0
	if m.completed > 0 {
		cpuPerJob = d.cpu.Seconds() / float64(m.completed)
	}
	return map[string]metric{
		"setup_s":            {d.setup.Seconds() / setupSlow, "s"},
		"job_latency_p50_ms": {percentile(lat, 50) / windowSlow, "ms"},
		"job_latency_p75_ms": {percentile(lat, 75) / windowSlow, "ms"},
		"cpu_s_per_job":      {cpuPerJob / windowSlow, "s"},
		"rss_peak_mb":        {d.rssMB, "MB"},
	}
}

// ratio guards a quotient against an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
