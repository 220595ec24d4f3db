package registry

import "testing"

func img(name, content string) Image {
	return Image{Name: name, Files: map[string][]byte{"a.txt": []byte(content)}}
}

func TestPushPullByDigestAndName(t *testing.T) {
	r := New()
	digest, err := r.Push(img("qrio/x:latest", "hello"))
	if err != nil {
		t.Fatal(err)
	}
	byDigest, err := r.Pull(digest)
	if err != nil || string(byDigest.Files["a.txt"]) != "hello" {
		t.Fatalf("pull by digest: %v %v", byDigest, err)
	}
	byName, err := r.Pull("qrio/x:latest")
	if err != nil || byName.Digest != digest {
		t.Fatalf("pull by name: %v %v", byName, err)
	}
}

func TestDigestIsContentAddressed(t *testing.T) {
	r := New()
	d1, _ := r.Push(img("a", "same"))
	d2, _ := r.Push(img("b", "same"))
	d3, _ := r.Push(img("c", "different"))
	if d1 != d2 {
		t.Fatal("identical content produced different digests")
	}
	if d1 == d3 {
		t.Fatal("different content produced same digest")
	}
}

func TestTagRepointsOnNewPush(t *testing.T) {
	r := New()
	d1, _ := r.Push(img("qrio/x:latest", "v1"))
	d2, _ := r.Push(img("qrio/x:latest", "v2"))
	if d1 == d2 {
		t.Fatal("digests should differ")
	}
	got, _ := r.Pull("qrio/x:latest")
	if got.Digest != d2 {
		t.Fatal("tag did not repoint to the latest push")
	}
	// Old digest still pullable (content-addressed store).
	if _, err := r.Pull(d1); err != nil {
		t.Fatal("old digest garbage-collected unexpectedly")
	}
}

func TestPushValidation(t *testing.T) {
	r := New()
	if _, err := r.Push(Image{Files: map[string][]byte{"a": nil}}); err == nil {
		t.Fatal("unnamed image accepted")
	}
	if _, err := r.Push(Image{Name: "x"}); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestPullMissing(t *testing.T) {
	r := New()
	if _, err := r.Pull("ghost"); err == nil {
		t.Fatal("pulled a ghost")
	}
}

func TestPullIsolation(t *testing.T) {
	r := New()
	d, _ := r.Push(img("x", "orig"))
	got, _ := r.Pull(d)
	got.Files["a.txt"][0] = 'X'
	again, _ := r.Pull(d)
	if string(again.Files["a.txt"]) != "orig" {
		t.Fatal("registry shares file buffers with callers")
	}
}

func TestListAndLen(t *testing.T) {
	r := New()
	r.Push(img("a", "1"))
	r.Push(img("b", "2"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	tags := r.List()
	if len(tags) != 2 || tags["a"] == "" || tags["b"] == "" {
		t.Fatalf("List = %v", tags)
	}
}

// TestDigestIsStable: a bundle's digest is part of every stored job's
// spec.image and must be rebuilt identically after a restart, whichever
// way the files were pushed.
func TestDigestIsStable(t *testing.T) {
	const want = "sha256:2053fcd186890920bfb3ad9eedd63978caa13f959799e94d3990b881fa08b680"
	files := map[string]string{
		"circuit.qasm": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", "runner.json": `{"shots":1024}`,
		"requirements.txt": "qiskit\n", "Dockerfile": "FROM x\n",
	}
	asBytes := make(map[string][]byte)
	for p, c := range files {
		asBytes[p] = []byte(c)
	}
	r := New()
	if d, err := r.Push(Image{Name: "qrio/j:latest", Files: asBytes}); err != nil || d != want {
		t.Fatalf("Push digest %s, %v; want %s", d, err, want)
	}
	if d, err := r.PushFiles("qrio/j:latest", files); err != nil || d != want {
		t.Fatalf("PushFiles digest %s, %v; want %s", d, err, want)
	}
}
