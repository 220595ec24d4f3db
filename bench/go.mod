// The benchmark is a module of its own so the root module's
// `go build ./... && go test ./...` neither builds nor depends on it. The
// module path keeps the `qrio/` prefix on purpose: that is what lets the
// harness import `qrio/internal/...` (simload, core, gateway, the layers it
// probes) from outside the root module.
module qrio/bench

go 1.24

require qrio v0.0.0

replace qrio => ../
