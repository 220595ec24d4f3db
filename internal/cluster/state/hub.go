package state

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
)

// Notification kinds.
const (
	KindJob  = "job"
	KindNode = "node"
)

// Notification is one cluster change fanned out by Subscribe: a job or
// node transition with the store's watch metadata attached. Exactly one of
// Job/Node is set, matching Kind. Resume is the cumulative position token
// as of this notification — hand it back to Subscribe (or
// GET /v1/watch?resume=) to continue the stream after a break without
// missing or repeating a transition. Treat it as opaque.
type Notification struct {
	Kind    string          `json:"kind"`
	Type    store.EventType `json:"type"`
	Job     *api.QuantumJob `json:"job,omitempty"`
	Node    *api.Node       `json:"node,omitempty"`
	Version int64           `json:"version"`
	Resume  string          `json:"resume,omitempty"`
}

// ResumeToken is a position in the merged job+node stream: one high-water
// mark per store shard (cross-shard delivery order is not version order,
// so a single scalar position could skip a slow shard's older event). The
// wire form is "j<m0>.<m1>...-n<m0>.<m1>..."; treat it as opaque outside
// this package.
type ResumeToken struct {
	Jobs  []int64
	Nodes []int64
}

// String renders the wire form of the token.
func (t ResumeToken) String() string {
	var b strings.Builder
	b.Grow(4 * (len(t.Jobs) + len(t.Nodes)))
	b.WriteByte('j')
	writeMarks(&b, t.Jobs)
	b.WriteString("-n")
	writeMarks(&b, t.Nodes)
	return b.String()
}

func writeMarks(b *strings.Builder, marks []int64) {
	for i, m := range marks {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatInt(m, 10))
	}
}

// maxTokenMarks bounds how many marks a client-supplied token may carry —
// far above any real shard count, low enough that a hostile token cannot
// balloon the parse.
const maxTokenMarks = 1024

// ParseResumeToken parses the wire form produced by ResumeToken.String.
// Malformed input returns an error the HTTP layer maps to 400 — tokens
// are client-supplied and must never panic the parser. A token whose mark
// counts no longer match the stores' shard layout parses fine here and
// surfaces as store.ErrCompacted at subscribe time (it names a position
// that can no longer be replayed).
func ParseResumeToken(s string) (ResumeToken, error) {
	bad := func() (ResumeToken, error) {
		return ResumeToken{}, fmt.Errorf("state: malformed resume token %q (want j<marks>-n<marks>)", s)
	}
	rest, ok := strings.CutPrefix(s, "j")
	if !ok {
		return bad()
	}
	jobsPart, nodesPart, ok := strings.Cut(rest, "-n")
	if !ok {
		return bad()
	}
	jobs, err := parseMarks(jobsPart)
	if err != nil {
		return bad()
	}
	nodes, err := parseMarks(nodesPart)
	if err != nil {
		return bad()
	}
	return ResumeToken{Jobs: jobs, Nodes: nodes}, nil
}

func parseMarks(s string) ([]int64, error) {
	parts := strings.Split(s, ".")
	if len(parts) == 0 || len(parts) > maxTokenMarks {
		return nil, fmt.Errorf("mark count out of range")
	}
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad mark %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// Subscribe is the cluster's broadcast hub: it merges the job and node
// stores' watch streams into one channel of typed notifications — the
// feed behind WaitForJobCtx and the /v1/watch SSE endpoint (client.Watch,
// qrioctl watch). Each notification carries the cumulative resume token
// as of itself.
//
// A zero token starts the stream now, and Subscribe returns the exact
// start token: the position to resume from if the stream breaks before
// any notification arrives. A token from an earlier stream replays every
// job and node transition after it from the stores' journals, then
// continues live; if either store has compacted past it — or it predates
// a different shard layout — Subscribe returns store.ErrCompacted and the
// consumer must start over from a zero token and a re-List. A stream is
// never thinned: a consumer that falls more than buffer behind has its
// channel closed, and resumes from its last token. cancel stops the
// stream and closes the channel.
func (c *Cluster) Subscribe(buffer int, from ResumeToken) (<-chan Notification, ResumeToken, func(), error) {
	if buffer <= 0 {
		buffer = 128
	}
	resuming := from.Jobs != nil || from.Nodes != nil
	jobCh, jobMarks, cancelJobs, err := c.Jobs.Watch(from.Jobs, buffer)
	if err != nil {
		c.countResume(err)
		return nil, ResumeToken{}, nil, err
	}
	nodeCh, nodeMarks, cancelNodes, err := c.Nodes.Watch(from.Nodes, buffer)
	if err != nil {
		cancelJobs()
		c.countResume(err)
		return nil, ResumeToken{}, nil, err
	}
	if resuming {
		c.countResume(nil)
	}
	// The merge loop advances its own copy of the marks; the start token
	// stays immutable (callers stamp SYNC events with it while the stream
	// runs, and a SYNC token must never pass an event not yet written).
	start := ResumeToken{Jobs: jobMarks, Nodes: nodeMarks}
	work := ResumeToken{Jobs: slices.Clone(jobMarks), Nodes: slices.Clone(nodeMarks)}
	out, cancel := c.mergeStreams(jobCh, nodeCh, cancelJobs, cancelNodes, work, buffer)
	return out, start, cancel, nil
}

// countResume records a resume attempt's outcome: nil means the journal
// replayed the token, ErrCompacted means the client must start over.
// Other errors (malformed shard layout surfaces as compacted upstream)
// stay uncounted.
func (c *Cluster) countResume(err error) {
	m := c.Metrics
	if m == nil {
		return
	}
	switch {
	case err == nil:
		m.WatchResumes.With("replayed").Inc()
	case errors.Is(err, store.ErrCompacted):
		m.WatchResumes.With("compacted").Inc()
	}
}

// hubRegistry tracks the live merged streams so a metrics scrape can
// report subscriber count and fanout backlog (Σ buffered notifications)
// without touching the streams themselves.
type hubRegistry struct {
	mu      sync.Mutex
	next    int
	streams map[int]chan Notification
}

func (h *hubRegistry) register(ch chan Notification) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next++
	h.streams[h.next] = ch
	return h.next
}

func (h *hubRegistry) unregister(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.streams, id)
}

// WatchHubStats reports the broadcast hub's live subscriber count and
// the total notifications sitting in subscriber buffers (fanout lag) —
// sampled by the metrics scrape.
func (c *Cluster) WatchHubStats() (streams, backlog int) {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	for _, ch := range c.hub.streams {
		backlog += len(ch)
	}
	return len(c.hub.streams), backlog
}

// mergeStreams fans the two store streams into one Notification channel,
// stamping each notification with the cumulative resume token (advanced
// in place, so token must be a private copy). Either source closing ends
// the merged stream: the close means the consumer fell behind, and only a
// resume from its last token can heal that.
func (c *Cluster) mergeStreams(
	jobCh <-chan store.WatchEvent[api.QuantumJob],
	nodeCh <-chan store.WatchEvent[api.Node],
	cancelJobs, cancelNodes func(),
	token ResumeToken, buffer int,
) (<-chan Notification, func()) {
	out := make(chan Notification, buffer)
	done := make(chan struct{})
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			close(done)
			cancelJobs()
			cancelNodes()
		})
	}
	id := c.hub.register(out)
	go func() {
		defer c.hub.unregister(id)
		defer close(out)
		for {
			var n Notification
			select {
			case <-done:
				return
			case ev, ok := <-jobCh:
				if !ok {
					return
				}
				j := ev.Object
				token.Jobs[ev.Shard] = ev.Version
				n = Notification{Kind: KindJob, Type: ev.Type, Job: &j, Version: ev.Version, Resume: token.String()}
			case ev, ok := <-nodeCh:
				if !ok {
					return
				}
				nd := ev.Object
				token.Nodes[ev.Shard] = ev.Version
				n = Notification{Kind: KindNode, Type: ev.Type, Node: &nd, Version: ev.Version, Resume: token.String()}
			}
			select {
			case out <- n:
			case <-done:
				return
			}
		}
	}()
	return out, cancel
}
