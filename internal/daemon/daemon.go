// Package daemon wires a running orchestrator's HTTP surface onto one
// mux — the composition the qrio binary serves.
package daemon

import (
	"net/http"
	"net/http/pprof"

	"qrio/internal/core"
	"qrio/internal/gateway"
	"qrio/internal/visualizer"
)

// Handler mounts the full QRIO HTTP surface:
//
//	/v1/  — the gateway (jobs, nodes, scores, events, watch, admin): the
//	        API qrioctl and the Go client package speak
//	/     — Visualizer dashboard, built over the same gateway
//
// Nothing else is mounted. Every submission — API call or dashboard form —
// enters through the orchestrator's one intake (core.QRIO.Submit), whose
// drain, rate-limit, schedulability, quota and name gates an embedded
// caller meets too; the gateway adds only its in-flight cap.
func Handler(q *core.QRIO) http.Handler {
	return HandlerMaxInFlight(q, 0)
}

// HandlerMaxInFlight is Handler with the gateway's global in-flight cap
// set (0 = uncapped); excess concurrent /v1 requests are shed with 503
// overloaded.
func HandlerMaxInFlight(q *core.QRIO, maxInFlight int) http.Handler {
	gw := gateway.New(q)
	gw.MaxInFlight = maxInFlight
	mux := http.NewServeMux()
	mux.Handle("/v1/", gw.Handler())
	mux.Handle("/", visualizer.New(gw).Handler())
	return mux
}

// DebugHandler serves net/http/pprof's profiles under /debug/pprof/. It is
// for a listener of its own (qrio -debug-addr), never mounted beside
// Handler's surface, whose gates it does not pass.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
