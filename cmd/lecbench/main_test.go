package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run("", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelected(t *testing.T) {
	// E5 is fast and deterministic.
	if err := run("E5", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelectedMultiple(t *testing.T) {
	if err := run("E1, e19", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("E99", false); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

// TestModeFlagHygiene: a flag that only the -workload mode reads is an
// error without it (it used to fall through and run every experiment), and
// -workers is validated before the mode runs. Every case is refused before
// any mode runs.
func TestModeFlagHygiene(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers=8"}, "-workers given without -workload"},
		{[]string{"-requests=10", "-seed=3"}, "-requests, -seed given without"},
		{[]string{"-run", "E5", "-cachesize=16"}, "-cachesize given without"},
		{[]string{"-list", "-out", "x.json"}, "-out given without"},
		{[]string{"-queries=3", "-zipf=1.2"}, "-queries, -zipf given without"},
		{[]string{"-driftband=-1", "-nobands", "-noindex"}, "-driftband, -nobands, -noindex given without"},
		{[]string{"-workload", "-workers=-3"}, "-workers must be >= 0"},
		{[]string{"-workload", "-list"}, "cannot be combined with -workload"},
	} {
		err := lecbench(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("lecbench %v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	// Flags every mode reads stay accepted without a mode.
	if err := lecbench([]string{"-list", "-json=false"}); err != nil {
		t.Fatal(err)
	}
}
