package qasm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestParseSharedParsesOnce: a recurring text is parsed once and every
// caller gets the same circuit, equal to a fresh Parse.
func TestParseSharedParsesOnce(t *testing.T) {
	src := fmt.Sprintf("%s// parsed once: %d\n", bvSample, time.Now().UnixNano()) // new to the memo
	before := parses.Load()
	first, err := ParseShared(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := ParseShared(src)
		if err != nil || again != first {
			t.Fatalf("call %d: got %p, %v; want the memoised %p", i, again, err, first)
		}
	}
	if n := parses.Load() - before; n != 1 {
		t.Fatalf("six ParseShared calls of one text ran Parse %d times, want 1", n)
	}
	fresh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Fatal("memoised circuit differs from a fresh Parse")
	}
}

// TestParseSharedIsBounded: many distinct texts, from four goroutines at
// once, keep the memo at its bound, and the newest text is still a hit.
func TestParseSharedIsBounded(t *testing.T) {
	text := func(i int) string { return fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\nh q[0];\n", i+1) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < 3*sharedSlots; i += 4 {
				if _, err := ParseShared(text(i)); err != nil {
					t.Error(err)
					return
				}
				if n := shared.Len(); n > sharedSlots {
					t.Errorf("memo holds %d texts, bound %d", n, sharedSlots)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := shared.Len(); n != sharedSlots {
		t.Fatalf("memo holds %d texts, want it full at %d", n, sharedSlots)
	}
	last := text(3 * sharedSlots)
	if _, err := ParseShared(last); err != nil {
		t.Fatal(err)
	}
	before := parses.Load()
	if _, err := ParseShared(last); err != nil || parses.Load() != before {
		t.Fatalf("the newest text was evicted (err %v)", err)
	}
}

// TestParseSharedStoresNoError: an unparseable text fails exactly as Parse
// fails, every time, and never takes a slot.
func TestParseSharedStoresNoError(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[1];\nh q[3];\n"
	_, want := Parse(src)
	if want == nil {
		t.Fatal("fixture parses")
	}
	for i := 0; i < 3; i++ {
		before := parses.Load()
		c, err := ParseShared(src)
		if c != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("ParseShared = %v, %v; want nil, %v", c, err, want)
		}
		if parses.Load() != before+1 {
			t.Fatal("a failed parse was answered from the memo")
		}
	}
	if _, stored := shared.Get(src); stored {
		t.Fatal("an unparseable text was stored")
	}
}
