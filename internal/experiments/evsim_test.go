package experiments

import (
	"strings"
	"testing"
)

// TestEvsimQuick runs the simulation-core scaling benchmark at quick
// scale and gates the flat-cost acceptance bound: Evsim itself errors
// when the wall-clock-per-simulated-second grows more than 3x as
// the idle fleet grows at fixed active work. CI runs the full 1k/8k/50k
// sweep through the CLI; this keeps the gate in every plain test run.
func TestEvsimQuick(t *testing.T) {
	res, err := Evsim(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("quick rows = %d, want 2: %+v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if row.ActiveJobs != 64 {
			t.Fatalf("active jobs = %d, want 64", row.ActiveJobs)
		}
		if row.WallMs <= 0 {
			t.Fatalf("missing wall measurements: %+v", row)
		}
	}
	if res.MaxRatio <= 0 || res.MaxRatio > evsimMaxRatio {
		t.Fatalf("max ratio %.2f outside (0, %.1f]", res.MaxRatio, evsimMaxRatio)
	}
	if !strings.Contains(res.Render(), "wall_ms_per_sim_s") {
		t.Fatal("render missing wall column")
	}
	js, err := res.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "evsim"`, `"gate_ratio": 3`, `"Nodes": 1000`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON rendering missing %q:\n%s", want, js)
		}
	}
}
