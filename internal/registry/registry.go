// Package registry is a content-addressed image registry — the stand-in
// for the Docker Hub the paper's Master Server pushes job containers to
// (§3.3). An image is a named bundle of files (the user circuit, the
// runner manifest, requirements.txt and the Dockerfile text); its digest is
// the SHA-256 of the canonicalised content, so identical bundles dedupe.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
)

// Image is a job bundle.
type Image struct {
	// Name is the human tag, e.g. "qrio/bv10:latest".
	Name string `json:"name"`
	// Digest is assigned on push: "sha256:<hex>".
	Digest string `json:"digest,omitempty"`
	// Files maps path -> content.
	Files map[string][]byte `json:"files"`
}

// stored is an image as the registry keeps it: its files in path order,
// contents as strings, so a pusher's strings (a job's circuit is its spec's
// QASM text) are shared rather than copied.
type stored struct {
	name  string
	files []file
}

type file struct{ path, content string }

// computeDigest hashes the canonicalised (path-ordered) file set.
func computeDigest(files []file) string {
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%d\x00", f.path, len(f.content))
		io.WriteString(h, f.content)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Registry stores images by tag and digest.
type Registry struct {
	mu       sync.RWMutex
	byDigest map[string]stored
	byName   map[string]string // tag -> digest (latest push wins)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byDigest: make(map[string]stored), byName: make(map[string]string)}
}

// Push stores an image and returns its digest.
func (r *Registry) Push(im Image) (string, error) {
	files := make(map[string]string, len(im.Files))
	for p, b := range im.Files {
		files[p] = string(b)
	}
	return r.PushFiles(im.Name, files)
}

// PushFiles is Push for an image whose files are strings, which the
// registry keeps as they are.
func (r *Registry) PushFiles(name string, files map[string]string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("registry: image needs a name")
	}
	if len(files) == 0 {
		return "", fmt.Errorf("registry: image %q has no files", name)
	}
	st := stored{name: name, files: make([]file, 0, len(files))}
	for _, p := range slices.Sorted(maps.Keys(files)) {
		st.files = append(st.files, file{p, files[p]})
	}
	digest := computeDigest(st.files)
	r.mu.Lock()
	r.byDigest[digest] = st
	r.byName[name] = digest
	r.mu.Unlock()
	return digest, nil
}

// Pull fetches an image by digest ("sha256:...") or tag. The files are the
// caller's own copies.
func (r *Registry) Pull(ref string) (Image, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	digest := ref
	st, ok := r.byDigest[digest]
	if !ok {
		digest = r.byName[ref]
		st, ok = r.byDigest[digest]
	}
	if !ok {
		return Image{}, fmt.Errorf("registry: no image %q", ref)
	}
	im := Image{Name: st.name, Digest: digest, Files: make(map[string][]byte, len(st.files))}
	for _, f := range st.files {
		im.Files[f.path] = []byte(f.content)
	}
	return im, nil
}

// List returns all stored tags with their digests.
func (r *Registry) List() map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]string, len(r.byName))
	for n, d := range r.byName {
		out[n] = d
	}
	return out
}

// Len returns the number of distinct image contents.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byDigest)
}
