package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
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
// the experiment selectors are refused with -workload. Every case is
// refused before any mode runs.
func TestModeFlagHygiene(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-requests=10"}, "-requests given without -workload"},
		{[]string{"-run", "E5", "-noindex"}, "-noindex given without"},
		{[]string{"-list", "-out", "x.json"}, "-out given without"},
		{[]string{"-driftband=-1", "-noindex"}, "-driftband, -noindex given without"},
		{[]string{"-workload", "-list"}, "cannot be combined with -workload"},
	} {
		err := lecbench(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("lecbench %v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	// Flags every mode reads stay accepted without a mode.
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if err := lecbench([]string{"-list", "-cpuprofile=" + prof}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadWritesNoFileWithoutOut: the workload mode writes its artifact
// only where -out names one. Run without it from a directory, it leaves no
// BENCH_workload.json there (it used to overwrite the committed artifact).
func TestWorkloadWritesNoFileWithoutOut(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	if err := lecbench([]string{"-workload", "-requests=60"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_workload.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("lecbench -workload without -out wrote BENCH_workload.json (stat: %v)", err)
	}
}
