package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/state"
	"qrio/internal/cluster/store"
	"qrio/internal/httpx"
)

// handleWatch streams cluster changes as server-sent events, fanned out
// from the state broadcast hub. Each SSE message's event name is the
// notification kind ("job" or "node") and its data is the JSON-encoded
// state.Notification, whose "resume" field carries the stream position
// token as of that event. On connect the current (filtered) objects are
// sent as SYNC notifications, so a client that watches after a transition
// it cares about still observes the object's present state — no
// list/watch race.
//
// Query params: kind=job|node narrows the stream to one kind, name=X to
// one object, and resume=<token> (a token from a previous stream's
// events) replays every transition after that position instead of sending
// the SYNC snapshot — the reconnect path for dropped SSE clients. A
// malformed token is 400 invalid; a token whose position has aged out of
// the server's version journal is 410 compacted, and the client must fall
// back to a fresh watch. The stream runs until the client disconnects, or
// ends (cleanly) if the client falls too far behind, so it reconnects from
// its latest token rather than silently missing transitions.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	kind := r.URL.Query().Get("kind")
	if kind != "" && kind != state.KindJob && kind != state.KindNode {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid,
			fmt.Errorf("gateway: unknown watch kind %q (job or node)", kind))
		return
	}
	name := r.URL.Query().Get("name")
	resume := r.URL.Query().Get("resume")
	resuming := resume != ""
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpx.WriteError(w, http.StatusInternalServerError, httpx.CodeInternal,
			fmt.Errorf("gateway: response writer cannot stream"))
		return
	}

	var from state.ResumeToken // zero: a fresh stream
	if resuming {
		var err error
		if from, err = state.ParseResumeToken(resume); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, httpx.CodeInvalid, err)
			return
		}
	}
	// A fresh stream opens before the SYNC snapshot is read, so no
	// transition between the two is lost; duplicates are fine (watch
	// consumers are level-triggered).
	sub, start, cancel, err := s.Core.State.Subscribe(256, from)
	if err != nil {
		if errors.Is(err, store.ErrCompacted) {
			httpx.WriteError(w, http.StatusGone, httpx.CodeCompacted, err)
			return
		}
		httpx.WriteError(w, http.StatusInternalServerError, httpx.CodeInternal, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	match := func(n state.Notification) bool {
		if kind != "" && n.Kind != kind {
			return false
		}
		if name != "" {
			switch {
			case n.Job != nil && n.Job.Name != name:
				return false
			case n.Node != nil && n.Node.Name != name:
				return false
			}
		}
		return true
	}

	if !resuming {
		// SYNC snapshot, stamped with the stream's starting token (a client
		// that drops before the first live event resumes from here) and each
		// object's resource version, so a client can tell a replayed
		// object from a live transition it has already seen.
		if kind == "" || kind == state.KindJob {
			s.Core.State.Jobs.Range(func(j api.QuantumJob, v int64) bool {
				n := state.Notification{Kind: state.KindJob, Type: SyncEvent, Job: &j, Version: v, Resume: start.String()}
				if match(n) {
					writeSSE(w, n)
				}
				return true
			})
		}
		if kind == "" || kind == state.KindNode {
			s.Core.State.Nodes.Range(func(nd api.Node, v int64) bool {
				n := state.Notification{Kind: state.KindNode, Type: SyncEvent, Node: &nd, Version: v, Resume: start.String()}
				if match(n) {
					writeSSE(w, n)
				}
				return true
			})
		}
	}
	flusher.Flush()

	ping := s.PingInterval
	if ping <= 0 {
		ping = 15 * time.Second
	}
	keepalive := time.NewTicker(ping)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case n, ok := <-sub:
			if !ok {
				return
			}
			if !match(n) {
				continue
			}
			writeSSE(w, n)
			flusher.Flush()
		case <-keepalive.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		}
	}
}

// writeSSE renders one notification as an SSE message.
func writeSSE(w http.ResponseWriter, n state.Notification) {
	raw, err := json.Marshal(n)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", n.Kind, raw)
}
