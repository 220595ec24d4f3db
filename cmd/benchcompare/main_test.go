package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// stream renders benchmark lines as the test2json events `go test -json`
// writes for a slow benchmark: the name flushed on its own, the numbers in
// a later event, and -count repeats as bare numeric lines.
func stream(name string, lines ...string) string {
	events := []event{{Action: "run", Test: name}, {Action: "output", Test: name, Output: name + "-2   \t"}}
	for _, l := range lines {
		events = append(events, event{Action: "output", Output: "       1\t" + l + "\n"})
	}
	var sb strings.Builder
	for _, ev := range events {
		line, _ := json.Marshal(ev)
		sb.Write(append(line, '\n'))
	}
	return sb.String()
}

func TestCompare(t *testing.T) {
	const name = "BenchmarkColdSweep"
	base := stream(name,
		"100000000 ns/op\t35000000 B/op\t  291000 allocs/op",
		"110000000 ns/op\t35000000 B/op\t  291000 allocs/op",
		"105000000 ns/op\t35000000 B/op\t  291000 allocs/op")
	for _, tc := range []struct {
		desc, current string
		regressed     []string // rows flagged, by name
	}{
		{"faster and leaner", stream(name,
			"70000000 ns/op\t30000000 B/op\t  270000 allocs/op"), nil},
		{"slower within the threshold", stream(name,
			"120000000 ns/op\t35000000 B/op\t  291000 allocs/op"), nil},
		{"a third slower", stream(name,
			"160000000 ns/op\t35000000 B/op\t  291000 allocs/op"), []string{name}},
		{"bytes grew past the threshold", stream(name,
			"100000000 ns/op\t45000000 B/op\t  291000 allocs/op"), []string{name + " B/op"}},
		{"allocations grew past the threshold", stream(name,
			"100000000 ns/op\t35000000 B/op\t  400000 allocs/op"), []string{name + " allocs/op"}},
		{"one outlier run of three", stream(name,
			"100000000 ns/op\t35000000 B/op\t  291000 allocs/op",
			"300000000 ns/op\t90000000 B/op\t  900000 allocs/op",
			"100000000 ns/op\t35000000 B/op\t  291000 allocs/op"), nil},
		{"allocation not reported", stream(name, "100000000 ns/op"), nil},
		{"missing from the current run", stream("BenchmarkOther", "1 ns/op"), nil},
	} {
		t.Run(tc.desc, func(t *testing.T) {
			b, err := parse(strings.NewReader(base))
			if err != nil {
				t.Fatal(err)
			}
			c, err := parse(strings.NewReader(tc.current))
			if err != nil {
				t.Fatal(err)
			}
			rows, n := compare(b, c, []string{name}, 25)
			var got []string
			for _, r := range rows {
				if r.regressed {
					got = append(got, r.name)
				}
			}
			if n != len(got) || strings.Join(got, ",") != strings.Join(tc.regressed, ",") {
				t.Fatalf("regressed %v (count %d), want %v; rows %+v", got, n, tc.regressed, rows)
			}
		})
	}
}

// TestCompareFromZeroAllocations: a benchmark that allocated nothing and
// now allocates has regressed, however small the growth; one that still
// allocates nothing reads +0.0%, not +inf%.
func TestCompareFromZeroAllocations(t *testing.T) {
	const name = "BenchmarkHot"
	b, _ := parse(strings.NewReader(stream(name, "50 ns/op\t0 B/op\t0 allocs/op")))
	for _, tc := range []struct {
		current string
		want    int
		delta   string // of the B/op and allocs/op rows
	}{
		{"50 ns/op\t0 B/op\t0 allocs/op", 0, "+0.0%"},
		{"50 ns/op\t8 B/op\t1 allocs/op", 2, "+inf%"},
	} {
		c, _ := parse(strings.NewReader(stream(name, tc.current)))
		rows, n := compare(b, c, []string{name}, 25)
		if n != tc.want {
			t.Fatalf("%q: %d regressions, want %d", tc.current, n, tc.want)
		}
		for _, r := range rows {
			if strings.HasSuffix(r.name, "/op") && r.delta != tc.delta {
				t.Fatalf("%q: row %s reads %s, want %s", tc.current, r.name, r.delta, tc.delta)
			}
		}
	}
}
