package main

import (
	"bytes"
	"strings"
	"testing"

	"fluxpower/internal/core/powermon"
)

// TestRun runs the quickstart and checks the shape of its output: the
// engine's and the monitor's summaries, then the job's CSV with rows
// from all four nodes.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("output too short:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[0], "qs-demo: ") || !strings.Contains(lines[0], " on 4 nodes") {
		t.Fatalf("engine summary: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "monitor: avg ") || !strings.HasSuffix(lines[1], "complete=true") {
		t.Fatalf("monitor summary: %q", lines[1])
	}
	if lines[3] != "CSV:" || lines[4] != strings.Join(powermon.CSVHeader, ",") {
		t.Fatalf("CSV header: %q %q", lines[3], lines[4])
	}
	ranks := map[string]bool{}
	for _, l := range lines[5:] {
		f := strings.Split(l, ",")
		if len(f) != len(powermon.CSVHeader) || f[1] != "quicksilver" || f[len(f)-1] != "true" {
			t.Fatalf("CSV row: %q", l)
		}
		ranks[f[2]] = true
	}
	if len(ranks) != 4 {
		t.Fatalf("CSV rows cover ranks %v, want 0-3", ranks)
	}
}
