package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluxpower/internal/core/powermon"
)

// TestCSVEndToEnd runs the command on a 3-node cluster and checks the
// shape of what it prints: the summary line on stderr, then the CSV
// header and at least one sample row for every rank.
func TestCSVEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nodes", "3", "-app", "gemm"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "job 1 (gemm on 3 nodes):") {
		t.Fatalf("summary: %q", stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if lines[0] != strings.Join(powermon.CSVHeader, ",") {
		t.Fatalf("header: %q", lines[0])
	}
	rows := map[string]int{}
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != len(powermon.CSVHeader) || f[0] != "1" || f[1] != "gemm" {
			t.Fatalf("row: %q", l)
		}
		rows[f[2]]++
	}
	for _, rank := range []string{"0", "1", "2"} {
		if rows[rank] == 0 {
			t.Fatalf("no rows for rank %s: %v", rank, rows)
		}
	}

	// -o writes the same bytes to a file.
	path := filepath.Join(t.TempDir(), "job.csv")
	if code := run([]string{"-nodes", "3", "-app", "gemm", "-o", path}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("-o: exit %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stdout.Bytes()) {
		t.Fatalf("-o file differs from stdout: %d vs %d bytes", len(got), len(stdout.Bytes()))
	}
}

// TestExitCodes checks that a failed CSV write and a bad flag do not
// exit 0.
func TestExitCodes(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err == nil {
		var stderr bytes.Buffer
		if code := run([]string{"-nodes", "2", "-o", "/dev/full"}, &bytes.Buffer{}, &stderr); code != 1 {
			t.Fatalf("write to a full device: exit %d, want 1", code)
		}
		if !strings.Contains(stderr.String(), "no space left") {
			t.Fatalf("stderr: %q", stderr.String())
		}
	}
	if code := run([]string{"-bogus"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-app", "nosuchapp"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
		t.Fatalf("unknown app: exit %d, want 1", code)
	}
}
