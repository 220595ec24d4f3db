package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one job share
// its name in Job; Parent is the span that caused this one (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
	// Attr carries the one fact worth keeping per span: the HTTP status of
	// a route span, hit/miss of a scoring span, the node of a stage span.
	Attr string `json:"attr,omitempty"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory trace. A run records two spans per
// (job, node) score — some 10⁵ in all on steady-warm; past the cap spans
// are counted as dropped instead of growing the heap under the system
// being measured.
const maxSpans = 400_000

// recorder keeps spans in memory until the run ends. It starts disabled and
// is switched on for the measured window only, so set-up's cold sweeps do
// not fill the trace.
type recorder struct {
	enabled atomic.Bool
	nextID  atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newRecorder starts span IDs at base so the server's and the load
// generator's spans can be merged without renumbering.
func newRecorder(base int64) *recorder {
	r := &recorder{}
	r.nextID.Store(base)
	return r
}

func (r *recorder) on() bool { return r.enabled.Load() }

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) >= maxSpans {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// scoring under one rank) are merged first so shared time is subtracted
// once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int64  `json:"droppedSpans"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) (traceFile, error) {
	var tf traceFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	err = json.Unmarshal(raw, &tf)
	return tf, err
}
