package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// retired lists experiment ids whose code is gone.  Ids are never
// reused, so a series name in a committed BENCH_*.json always means the
// same workload: E17 (partitioned evaluation) went with the partitioned
// evaluator it measured.
var retired = map[int]bool{17: true}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18-len(retired) {
		t.Fatalf("registered %d experiments, want %d", len(all), 18-len(retired))
	}
	want := 0
	for i, e := range all {
		want++
		for retired[want] {
			want++
		}
		if idOrder(e.ID) != want {
			t.Errorf("position %d has %s", i, e.ID)
		}
		if e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := Find("E1"); !ok {
		t.Error("Find(E1) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Error("Find(E99) succeeded")
	}
}

// TestAllExperimentsPass runs every experiment in quick mode: each
// experiment verifies its paper claims internally and errors on any
// mismatch, so this is the end-to-end reproduction check.
func TestAllExperimentsPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunOne(&buf, e, true); err != nil {
				t.Fatalf("%v\noutput:\n%s", err, buf.String())
			}
			if strings.Contains(buf.String(), "MISMATCH") {
				t.Fatalf("mismatch in output:\n%s", buf.String())
			}
		})
	}
}
