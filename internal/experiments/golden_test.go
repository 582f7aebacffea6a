package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fluxpower/internal/cluster"
)

var update = flag.Bool("update", false, "rewrite the renderer golden files")

// Renderer goldens pin the exact text and CSV output of the table/figure
// renderers against committed files, using small synthetic fixtures so the
// tests run in microseconds and a diff shows precisely which cell moved.
// Regenerate intentionally with:
//
//	go test ./internal/experiments -run Golden -update
//
// The fixtures exercise the formatting edge cases the experiments produce:
// zero values, sub-watt fractions, energy columns marked not comparable,
// and empty timeline sections.

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: render drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// timeline returns a short synthetic power trace with a ramp and a flat
// tail, enough to exercise alignment across magnitudes.
func timeline(baseW float64) []TimelinePoint {
	return []TimelinePoint{
		{TimeSec: 0, NodeW: baseW, CPUW: 120, MemW: 80, GPU0W: 60, TotalGPU: 240},
		{TimeSec: 5, NodeW: baseW + 350.5, CPUW: 188.2, MemW: 81.4, GPU0W: 272.9, TotalGPU: 1091.6},
		{TimeSec: 10, NodeW: baseW + 349.9, CPUW: 188, MemW: 81.3, GPU0W: 272.5, TotalGPU: 1090},
	}
}

func TestGoldenFig1(t *testing.T) {
	r := &Fig1Result{
		LAMMPS:      timeline(700),
		Quicksilver: timeline(900),
	}
	checkGolden(t, "fig1", r.Render())
}

func TestGoldenFig2(t *testing.T) {
	r := &Fig2Result{Rows: []Fig2Row{
		{System: cluster.Lassen, App: "lammps", Nodes: 1,
			NodeW: 1050.2, CPUW: 376.4, MemW: 162.8, GPUW: 1091.6, ExecSec: 312.5},
		{System: cluster.Lassen, App: "quicksilver", Nodes: 1,
			NodeW: 1210, CPUW: 380.1, MemW: 160, GPUW: 1180.4, ExecSec: 451},
		{System: cluster.Tioga, App: "lammps", Nodes: 1,
			NodeW: 980.7, CPUW: 212.3, MemW: 0, GPUW: 1420.9, ExecSec: 205.8},
		{System: cluster.Tioga, App: "quicksilver", Nodes: 1,
			NodeW: 1102.4, CPUW: 220, MemW: 0, GPUW: 1533.2, ExecSec: 330.1},
	}}
	checkGolden(t, "fig2", r.Render())
}

func TestGoldenFig7(t *testing.T) {
	r := &Fig7Result{
		GEMMTimeline:     timeline(1500),
		NQueensTimeline:  timeline(400),
		GEMMPowerBeforeW: 1850.4,
		GEMMPowerDuringW: 1228.7,
		NQueensStartSec:  20,
		NQueensEndSec:    80,
	}
	checkGolden(t, "fig7", r.Render())
}

func TestGoldenTable2(t *testing.T) {
	r := &Table2Result{Rows: []Table2Row{
		{App: "lammps", Nodes: 1, LassenSec: 312.5, TiogaSec: 205.8,
			LassenAvgW: 1050.2, TiogaAvgW: 980.7,
			LassenEnergyKJ: 328.2, TiogaEnergyKJ: 201.8, EnergyComparable: true},
		{App: "quicksilver", Nodes: 1, LassenSec: 451, TiogaSec: 330.1,
			LassenAvgW: 1210, TiogaAvgW: 1102.4,
			LassenEnergyKJ: 545.7, TiogaEnergyKJ: 363.9, EnergyComparable: false},
	}}
	checkGolden(t, "table2", r.Render())
	checkGolden(t, "table2_csv", r.RenderCSV())
}

func TestGoldenTable3(t *testing.T) {
	r := &Table3Result{Rows: []Table3Row{
		{UseCase: "unconstrained", NodeCapW: 3050, DerivedGPUCapW: 700,
			MaxClusterKW: 48.8, AvgClusterKW: 31.2,
			GEMMEnergyPerNodeKJ: 412.6, GEMMSec: 240.5},
		{UseCase: "cluster-cap-39kW", NodeCapW: 2437, DerivedGPUCapW: 546,
			MaxClusterKW: 39, AvgClusterKW: 29.8,
			GEMMEnergyPerNodeKJ: 398.1, GEMMSec: 261.3},
		{UseCase: "cluster-cap-29kW", NodeCapW: 1812, DerivedGPUCapW: 390,
			MaxClusterKW: 29, AvgClusterKW: 25.4,
			GEMMEnergyPerNodeKJ: 371, GEMMSec: 334.8},
	}}
	checkGolden(t, "table3", r.Render())
	checkGolden(t, "table3_csv", r.RenderCSV())
}

func TestGoldenTable4(t *testing.T) {
	r := &Table4Result{Rows: []Table4Row{
		{Case: CaseUnconstrained, NodeCapW: 3050,
			GEMMMaxNodeW: 1890.2, QSMaxNodeW: 1400.8,
			GEMMSec: 240.5, QSSec: 451.2, GEMMEnergyKJ: 412.6, QSEnergyKJ: 545.7,
			GEMMTimeline: timeline(1500), QSTimeline: timeline(900)},
		{Case: CaseIBMDefault, NodeCapW: 1200,
			GEMMMaxNodeW: 1199.9, QSMaxNodeW: 1180.3,
			GEMMSec: 388.4, QSSec: 470, GEMMEnergyKJ: 430.1, QSEnergyKJ: 548.2},
		{Case: CaseProportional, NodeCapW: 1950,
			GEMMMaxNodeW: 1630.5, QSMaxNodeW: 1320.6,
			GEMMSec: 266.7, QSSec: 455.4, GEMMEnergyKJ: 418.9, QSEnergyKJ: 546.3},
	}}
	checkGolden(t, "table4", r.Render())
	checkGolden(t, "table4_csv", r.RenderCSV())
}

func TestGoldenRenderTimelines(t *testing.T) {
	got := RenderTimelines("Fig 5: proportional sharing timeline",
		timeline(1500), timeline(900))
	checkGolden(t, "fig5_timelines", got)
}

func TestGoldenStore(t *testing.T) {
	r := &StoreResult{
		Samples: 120000, IngestPerSec: 97701, DiskBytes: 286336,
		SealedBlocks: 234, BytesPerSample: 2.4,
		CSVBytes: 11794569, Ratio: 0.024, RecoveryMs: 181.2,
		RecoveredSamples: 120000,
	}
	checkGolden(t, "store", r.Render())
	checkGolden(t, "store_csv", r.RenderCSV())
}

func TestGoldenHeal(t *testing.T) {
	r := &HealResult{SimNodes: 64, LiveNodes: 16, Rows: []HealRow{
		{Mode: "sim", Crashes: 1, HealSec: 0.85, Converged: true},
		{Mode: "sim", Crashes: 2, HealSec: 0.95, Converged: true},
		{Mode: "sim", Crashes: 8, HealSec: 1.8, Converged: true},
		{Mode: "live-tcp", Crashes: 1, HealSec: 0.21, Converged: true},
	}}
	checkGolden(t, "heal", r.Render())
	checkGolden(t, "heal_csv", r.RenderCSV())
}

func TestGoldenPolicy(t *testing.T) {
	r := &PolicyResult{Nodes: 16, BudgetW: 18000, Jobs: 6, Rows: []PolicyRow{
		{Scheme: "fcfs", MakespanSec: 461, ThroughputPerHr: 46.8,
			AvgQueueWaitSec: 108, MaxQueueWaitSec: 261, Rounds: 230,
			Violations: 46, Sustained: 1, TotalEnergyKJ: 3062, BudgetTrims: 5},
		{Scheme: "power-aware", MakespanSec: 426, ThroughputPerHr: 50.7,
			AvgQueueWaitSec: 66, MaxQueueWaitSec: 151, Rounds: 212,
			Violations: 75, Sustained: 2, TotalEnergyKJ: 3065},
		{Scheme: "closed-loop", MakespanSec: 426, ThroughputPerHr: 50.7,
			AvgQueueWaitSec: 66, MaxQueueWaitSec: 151, Rounds: 212,
			Violations: 3, ReclaimedKW: 6.4, GrantedKW: 4.1, TotalEnergyKJ: 3061},
	}}
	checkGolden(t, "policy", r.Render())
	checkGolden(t, "policy_csv", r.RenderCSV())
}

func TestGoldenChaos(t *testing.T) {
	r := &ChaosResult{Nodes: 16, Rows: []ChaosRow{
		{DropProb: 0, Queries: 15, OK: 15},
		{DropProb: 0.05, Queries: 15, OK: 3, Partial: 12, AvgMissing: 1.4},
		{DropProb: 0.4, Queries: 15, Partial: 14, Failed: 1, AvgMissing: 6.8},
	}}
	checkGolden(t, "chaos", r.Render())
	checkGolden(t, "chaos_csv", r.RenderCSV())
}
