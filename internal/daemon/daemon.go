// Package daemon wires a running orchestrator's HTTP surface onto one
// mux — the composition the qrio binary serves.
package daemon

import (
	"net/http"

	"qrio/internal/core"
	"qrio/internal/gateway"
	"qrio/internal/visualizer"
)

// Handler mounts the full QRIO HTTP surface:
//
//	/v1/  — the gateway (jobs, nodes, scores, events, watch, admin): the
//	        API qrioctl, qrio-sched and the Go client package speak
//	/     — Visualizer dashboard, built over the same gateway
//
// Nothing else is mounted: every write — API call or dashboard form —
// enters through the gateway's drain, rate-limit, schedulability and quota
// gates.
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
