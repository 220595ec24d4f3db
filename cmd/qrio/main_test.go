package main

import "testing"

// TestVisualizerURL: the logged link keeps the listen address's host and
// falls back to localhost only when the address names none.
func TestVisualizerURL(t *testing.T) {
	for addr, want := range map[string]string{
		":8080":           "http://localhost:8080/",
		"127.0.0.1:18080": "http://127.0.0.1:18080/",
		"[::1]:9000":      "http://[::1]:9000/",
	} {
		if got := visualizerURL(addr); got != want {
			t.Errorf("visualizerURL(%q) = %q, want %q", addr, got, want)
		}
	}
}
