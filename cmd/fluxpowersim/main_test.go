package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUnknownExperimentExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "nope"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"nope"`) {
		t.Fatalf("stderr does not name the bad experiment: %q", msg)
	}
	// The error must list the valid experiments so the user can recover.
	for _, name := range names() {
		if !strings.Contains(msg, name) {
			t.Fatalf("stderr does not list experiment %q: %q", name, msg)
		}
	}
}

func TestUnknownExperimentWithCSVFormatStillReportsUnknown(t *testing.T) {
	// The name check must come before the CSV-rendering check, or a typo
	// plus -format csv yields the misleading "no CSV rendering" error.
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "nope", "-format", "csv"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("want unknown-experiment error, got: %q", stderr.String())
	}
}

func TestNoCSVRenderingExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig1", "-format", "csv"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("csv format for a text-only experiment exited 0")
	}
	if !strings.Contains(stderr.String(), "no CSV rendering") {
		t.Fatalf("stderr: %q", stderr.String())
	}
}

func TestMissingExpFlagExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code == 0 {
		t.Fatal("missing -exp exited 0")
	}
}

func TestListPrintsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	lines := strings.Fields(stdout.String())
	if len(lines) != len(names()) {
		t.Fatalf("-list printed %d names, registry has %d", len(lines), len(names()))
	}
	for _, name := range names() {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("-list missing %q", name)
		}
	}
}

func TestBadFlagExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code == 0 {
		t.Fatal("bad flag exited 0")
	}
}

func TestRunExperimentEndToEnd(t *testing.T) {
	// One real (quick) experiment through the CLI path, text and CSV.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("table2 -quick exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "==== table2 ====") {
		t.Fatalf("missing banner: %q", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-exp", "table2", "-quick", "-format", "csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("table2 csv exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), ",") {
		t.Fatalf("csv output has no commas: %q", stdout.String())
	}
}

func TestRenderingSets(t *testing.T) {
	// The CSV set follows from each result type; pin it so a registry
	// change cannot drop a rendering unnoticed.
	var got []string
	for _, name := range names() {
		if registry[name].csv {
			got = append(got, name)
		}
	}
	if want := "chaos heal policy scale store sweep table2 table3 table4"; strings.Join(got, " ") != want {
		t.Errorf("csv set = %v, want %s", got, want)
	}
}

func TestUnknownFormatExitsTwo(t *testing.T) {
	// Only text and csv render; any other -format is a usage error,
	// reported before any experiment runs.
	for _, format := range []string{"json", "xml"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", "table2", "-quick", "-format", format}, &stdout, &stderr); code != 2 {
			t.Fatalf("-format %s exited %d, want 2", format, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, "text, csv") || stdout.Len() != 0 {
			t.Fatalf("-format %s: stderr %q, stdout %q", format, msg, stdout.String())
		}
	}
}
