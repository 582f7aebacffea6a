package powermon

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/simtime"
	"fluxpower/internal/variorum"
)

// bareRoot builds a 1-broker instance with no monitor loaded, so tests
// can install fake query services or exercise missing-service errors.
func bareRoot(t *testing.T) *broker.Broker {
	t.Helper()
	inst, err := broker.NewInstance(broker.InstanceOptions{Size: 1, Scheduler: simtime.NewScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Root()
}

func TestClientQueryNoService(t *testing.T) {
	b := bareRoot(t)
	if _, err := NewClient(b).Query(1); err == nil {
		t.Fatal("query without a power-monitor module succeeded")
	}
	if _, err := NewClient(b).QueryAggregate(1); err == nil {
		t.Fatal("aggregate query without a power-monitor module succeeded")
	}
}

func TestClientQueryMalformedResponse(t *testing.T) {
	// A root-agent answering with a payload that does not decode into the
	// result type must surface as an error, not a zero-value result.
	b := bareRoot(t)
	if err := b.RegisterService("power-monitor.query", func(req *broker.Request) {
		_ = req.Respond(map[string]any{"jobid": "not-a-number"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(b).Query(1); err == nil {
		t.Fatal("malformed query response decoded without error")
	}
	if _, err := NewClient(b).QueryAggregate(1); err == nil {
		t.Fatal("malformed aggregate response decoded without error")
	}
}

// failingWriter errors after allowing n successful writes.
type failingWriter struct {
	n   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

func testJobPower() JobPower {
	return JobPower{
		JobID: 7,
		App:   "laghos",
		Nodes: []NodeSamples{{
			Rank:     0,
			Hostname: "n0",
			Complete: true,
			Samples: []variorum.NodePower{{
				Timestamp:      2,
				NodeWatts:      400,
				SocketCPUWatts: []float64{100, 100},
				SocketMemWatts: []float64{40},
				GPUWatts:       []float64{50, 50},
			}},
		}},
	}
}

func TestWriteCSVPropagatesWriterErrors(t *testing.T) {
	wantErr := errors.New("disk full")
	// csv.Writer buffers through bufio, so a small render hits the
	// underlying writer once, at the final flush.
	if err := WriteCSV(&failingWriter{n: 0, err: wantErr}, testJobPower()); !errors.Is(err, wantErr) {
		t.Fatalf("flush error: %v", err)
	}
	// A render larger than bufio's 4 KiB buffer flushes mid-stream; the
	// error from a row-time flush must propagate too, not just the final
	// one. One sample renders to ~60 bytes, so 400 samples ≫ one buffer.
	big := testJobPower()
	s := big.Nodes[0].Samples[0]
	for i := 0; i < 400; i++ {
		big.Nodes[0].Samples = append(big.Nodes[0].Samples, s)
	}
	if err := WriteCSV(&failingWriter{n: 1, err: wantErr}, big); !errors.Is(err, wantErr) {
		t.Fatalf("mid-stream write error: %v", err)
	}
}

func TestWriteCSVEmptyJob(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, JobPower{JobID: 1}); err != nil {
		t.Fatal(err)
	}
	// Header only.
	if got := buf.String(); len(bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))) != 1 {
		t.Fatalf("empty job CSV: %q", got)
	}
}

func TestSummarizeNoSamples(t *testing.T) {
	jp := JobPower{JobID: 9, Nodes: []NodeSamples{{Rank: 0, Complete: true}}}
	if _, err := Summarize(jp); err == nil {
		t.Fatal("summary of a sampleless job succeeded")
	}
}

func TestCollectNodeContext(t *testing.T) {
	c := monitored(t, cluster.Lassen, 4, Config{})
	c.RunFor(10 * time.Second) // let the rings fill
	client := NewClient(c.Inst.Root())
	ns, err := client.CollectNodeContext(context.Background(), 3, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Rank != 3 {
		t.Fatalf("rank: %d", ns.Rank)
	}
	if len(ns.Samples) < 3 {
		t.Fatalf("10 s window at 2 s sampling yielded %d samples", len(ns.Samples))
	}
	if !ns.Complete {
		t.Fatal("fresh ring reported incomplete window")
	}
	// Out-of-range rank is a routing error, not a hang.
	if _, err := client.CollectNodeContext(context.Background(), 99, 0, 10); err == nil {
		t.Fatal("collect from rank outside the instance succeeded")
	}
}

func TestClientContextPreCanceled(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	client := NewClient(c.Inst.Root())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.QueryContext(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext: %v", err)
	}
	if _, err := client.QueryAggregateContext(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryAggregateContext: %v", err)
	}
	if _, err := client.StatusContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("StatusContext: %v", err)
	}
	if _, err := client.CollectNodeContext(ctx, 0, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("CollectNodeContext: %v", err)
	}
	if n := c.Inst.Root().PendingRPCs(); n != 0 {
		t.Fatalf("canceled client calls leaked %d matchtags", n)
	}
}

// wideGPUJobPower builds a job with per-sample GPU lists wide enough that
// the old O(n²) string concatenation dominated row rendering.
func wideGPUJobPower(gpus, samples int) JobPower {
	gw := make([]float64, gpus)
	for i := range gw {
		gw[i] = 100 + float64(i)
	}
	var ss []variorum.NodePower
	for i := 0; i < samples; i++ {
		ss = append(ss, variorum.NodePower{
			Timestamp:      float64(i) * 2,
			NodeWatts:      900,
			SocketCPUWatts: []float64{100, 100},
			SocketMemWatts: []float64{40},
			GPUWatts:       gw,
		})
	}
	return JobPower{JobID: 42, App: "gemm",
		Nodes: []NodeSamples{{Rank: 0, Hostname: "n0", Complete: true, Samples: ss}}}
}

// BenchmarkWriteCSVWideGPU pins the strings.Builder gpuList rendering: at
// 64 GPUs per sample the old += concatenation copied the growing list 64
// times per row.
func BenchmarkWriteCSVWideGPU(b *testing.B) {
	jp := wideGPUJobPower(64, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, jp); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteCSVWideGPUList(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, wideGPUJobPower(8, 2)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows: %d", len(lines))
	}
	// Each data row carries all 8 GPUs, semicolon-separated, in order.
	for _, line := range lines[1:] {
		if !strings.Contains(line, "100.0;101.0;102.0;103.0;104.0;105.0;106.0;107.0") {
			t.Fatalf("gpu list mangled: %q", line)
		}
	}
}

// writeCSVPerCell is the renderer WriteCSV replaced — every cell a
// string, every row a csv.Writer record — kept as its byte-level oracle.
func writeCSVPerCell(w io.Writer, jp JobPower) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	var gpuList strings.Builder
	for _, node := range jp.Nodes {
		for _, s := range node.Samples {
			gpuList.Reset()
			for i, g := range s.GPUWatts {
				if i > 0 {
					gpuList.WriteByte(';')
				}
				gpuList.WriteString(strconv.FormatFloat(g, 'f', 1, 64))
			}
			row := []string{
				strconv.FormatUint(jp.JobID, 10),
				jp.App,
				strconv.FormatInt(int64(node.Rank), 10),
				node.Hostname,
				f(s.Timestamp),
				f(s.NodeWatts),
				f(s.CPUWatts()),
				f(s.MemWatts()),
				f(s.TotalGPUWatts()),
				gpuList.String(),
				strconv.FormatBool(node.Complete),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// TestWriteCSVMatchesPerCellRenderer: the hoisted, append-based renderer
// is byte-identical to the per-cell csv.Writer one, including free-text
// cells that need quoting and numbers at the format's edges.
func TestWriteCSVMatchesPerCellRenderer(t *testing.T) {
	texts := []string{
		"", "laghos", "n0", "a,b", `say "hi"`, " leading", "\tleading tab",
		"cr\rlf\n", "line\nbreak", `\.`, "\u00a0nbsp", "ünïcode", "trailing ",
	}
	samples := []variorum.NodePower{
		{Timestamp: 2, NodeWatts: 400, SocketCPUWatts: []float64{100, 100}, SocketMemWatts: []float64{40}, GPUWatts: []float64{50, 50}},
		{Timestamp: 4.0005, NodeWatts: variorum.Unsupported, SocketCPUWatts: []float64{1e-9}, GPUWatts: []float64{-0.05, 1e21}},
		{Timestamp: 1e15, NodeWatts: math.Inf(1), SocketCPUWatts: []float64{math.NaN()}, SocketMemWatts: []float64{}},
		{Timestamp: 0, NodeWatts: -0.0},
	}
	for i, app := range texts {
		jp := JobPower{JobID: uint64(i) * 1e17, App: app}
		for r, host := range texts {
			jp.Nodes = append(jp.Nodes, NodeSamples{
				Rank: int32(r - 1), Hostname: host, Complete: r%2 == 0, Samples: samples[:r%(len(samples)+1)],
			})
		}
		var got, want bytes.Buffer
		if err := WriteCSV(&got, jp); err != nil {
			t.Fatal(err)
		}
		if err := writeCSVPerCell(&want, jp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("app %q: CSV differs from the per-cell renderer:\ngot:\n%s\nwant:\n%s", app, got.Bytes(), want.Bytes())
		}
	}
}

// BenchmarkWriteCSVJob renders a paper-shaped job (4 GPUs, 16 nodes of
// 300 samples): the per-row cost WriteCSV's hoisting targets.
func BenchmarkWriteCSVJob(b *testing.B) {
	jp := wideGPUJobPower(4, 300)
	for r := 1; r < 16; r++ {
		n := jp.Nodes[0]
		n.Rank, n.Hostname = int32(r), "n"+strconv.Itoa(r)
		jp.Nodes = append(jp.Nodes, n)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, jp); err != nil {
			b.Fatal(err)
		}
	}
}
