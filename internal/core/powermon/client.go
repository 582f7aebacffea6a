package powermon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/query"
	"fluxpower/internal/stats"
	"fluxpower/internal/variorum"
)

// Client is the external telemetry client — the role the paper's Python
// script plays: given a job identifier, fetch the job's aggregated power
// data from the root-agent and render it as a CSV.
//
// In the simulation the client attaches to a broker directly (normally
// rank 0, like a client connecting to the system instance's local socket).
type Client struct {
	b *broker.Broker
}

// NewClient attaches a telemetry client to a broker.
func NewClient(b *broker.Broker) *Client { return &Client{b: b} }

// QueryContext fetches a job's power data, bounding the whole exchange by
// the context's deadline and abandoning it on cancellation. Server-side
// callers (the powerapi gateway) use this to enforce per-request deadlines
// instead of relying solely on the broker's configured call timeout.
func (c *Client) QueryContext(ctx context.Context, jobID uint64) (JobPower, error) {
	resp, err := c.b.CallContext(ctx, msg.NodeAny, "power-monitor.query", map[string]uint64{"jobid": jobID})
	if err != nil {
		return JobPower{}, err
	}
	var jp JobPower
	if err := resp.Unmarshal(&jp); err != nil {
		return JobPower{}, err
	}
	return jp, nil
}

// Query fetches a job's power data.
//
// Deprecated: use QueryContext; Query delegates to it with a background
// context (the broker's configured call timeout still applies).
func (c *Client) Query(jobID uint64) (JobPower, error) {
	return c.QueryContext(context.Background(), jobID)
}

// QueryAggregateContext fetches a job's summary statistics computed
// in-network — only aggregate-sized payloads cross the TBON, so the call
// stays cheap no matter how many nodes the job spans — under the
// context's deadline.
func (c *Client) QueryAggregateContext(ctx context.Context, jobID uint64) (JobAggregate, error) {
	resp, err := c.b.CallContext(ctx, msg.NodeAny, "power-monitor.query",
		queryRequest{JobID: jobID, Mode: ModeAggregate})
	if err != nil {
		return JobAggregate{}, err
	}
	var ja JobAggregate
	if err := resp.Unmarshal(&ja); err != nil {
		return JobAggregate{}, err
	}
	return ja, nil
}

// QueryAggregate fetches a job's summary statistics computed in-network.
//
// Deprecated: use QueryAggregateContext; this delegates to it with a
// background context.
func (c *Client) QueryAggregate(jobID uint64) (JobAggregate, error) {
	return c.QueryAggregateContext(context.Background(), jobID)
}

// StatusContext fetches the root-agent's instance-wide broker health
// report under the context's deadline.
func (c *Client) StatusContext(ctx context.Context) (InstanceStatus, error) {
	resp, err := c.b.CallContext(ctx, msg.NodeAny, "power-monitor.status", nil)
	if err != nil {
		return InstanceStatus{}, err
	}
	var st InstanceStatus
	if err := resp.Unmarshal(&st); err != nil {
		return InstanceStatus{}, err
	}
	return st, nil
}

// CollectNodeContext asks one node-agent directly for its raw samples in
// [startSec, endSec] (endSec 0 = now). This is the rank-addressed window
// query the gateway's /v1/nodes/{rank}/power endpoint serves; job queries
// should go through QueryContext, which matches the job's window and
// ranks automatically.
func (c *Client) CollectNodeContext(ctx context.Context, rank int32, startSec, endSec float64) (NodeSamples, error) {
	resp, err := c.b.CallContext(ctx, rank, query.FetchService,
		query.PlanSpec{StartSec: startSec, EndSec: endSec})
	if err != nil {
		return NodeSamples{}, err
	}
	var reply query.FetchReply
	if err := resp.Unmarshal(&reply); err != nil {
		return NodeSamples{}, err
	}
	return nodeSamples(reply), nil
}

// CSVHeader is the column layout of WriteCSV.
var CSVHeader = []string{
	"jobid", "app", "rank", "hostname", "timestamp_sec",
	"node_power_watts", "cpu_power_watts", "mem_power_watts", "gpu_power_watts",
	"gpu_devices", "complete",
}

// WriteCSV renders the job power data as the paper's client does: one row
// per (node, sample), with a completeness column saying whether that
// node's buffer still held the job's full window. Sensors the platform
// lacks render as -1 (the Variorum convention).
//
// The cells fixed per node — job id, app, rank, hostname, complete — are
// rendered once through encoding/csv, which quotes the two free-text
// ones as needed; each sample then appends its numbers to one reused
// line buffer. Numbers never need quoting, so the bytes are exactly
// those of a csv.Writer fed every cell.
func WriteCSV(w io.Writer, jp JobPower) error {
	bw := bufio.NewWriter(w)
	var cells bytes.Buffer
	cw := csv.NewWriter(&cells)
	record := func(fields ...string) ([]byte, error) {
		cells.Reset()
		if err := cw.Write(fields); err != nil {
			return nil, err
		}
		cw.Flush()
		return cells.Bytes(), cw.Error()
	}
	header, err := record(CSVHeader...)
	if err != nil {
		return err
	}
	if _, err := bw.Write(header); err != nil {
		return err
	}
	jobID := strconv.FormatUint(jp.JobID, 10)
	var line []byte
	for _, node := range jp.Nodes {
		// A record ending in an empty cell renders as "jobid,app,rank,
		// hostname,\n": the row prefix plus a newline to drop.
		prefix, err := record(jobID, jp.App, strconv.FormatInt(int64(node.Rank), 10), node.Hostname, "")
		if err != nil {
			return err
		}
		prefix = prefix[:len(prefix)-1]
		for _, s := range node.Samples {
			line = append(line[:0], prefix...)
			for _, v := range [...]float64{s.Timestamp, s.NodeWatts, s.CPUWatts(), s.MemWatts(), s.TotalGPUWatts()} {
				line = strconv.AppendFloat(line, v, 'f', 3, 64)
				line = append(line, ',')
			}
			for i, g := range s.GPUWatts {
				if i > 0 {
					line = append(line, ';')
				}
				line = strconv.AppendFloat(line, g, 'f', 1, 64)
			}
			line = append(line, ',')
			line = strconv.AppendBool(line, node.Complete)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Summary condenses a JobPower into the per-job figures the paper's
// tables report: averaged per-node power and energy over the sampled
// window.
type Summary struct {
	JobID       uint64
	App         string
	NodeCount   int
	DurationSec float64
	// AvgNodePowerW averages each node's mean measured power.
	AvgNodePowerW float64
	// MaxNodePowerW is the peak single-sample node power across nodes.
	MaxNodePowerW float64
	// AvgEnergyPerNodeJ integrates each node's power over the window and
	// averages across nodes (Table II's "Avg. Energy (per-node)").
	AvgEnergyPerNodeJ float64
	// Per-component averages across nodes and samples; -1 where the
	// platform cannot measure (Tioga memory).
	AvgCPUW, AvgMemW, AvgGPUW float64
	Complete                  bool
}

// Summarize reduces the per-sample data. It returns an error when no node
// contributed any samples (job shorter than a sampling interval).
func Summarize(jp JobPower) (Summary, error) {
	s := Summary{JobID: jp.JobID, App: jp.App, NodeCount: len(jp.Nodes), Complete: jp.Complete()}
	end := jp.EndSec
	if end > jp.StartSec {
		s.DurationSec = end - jp.StartSec
	}
	var nodeMeans, nodeEnergies, cpuMeans, memMeans, gpuMeans []float64
	for _, node := range jp.Nodes {
		if len(node.Samples) == 0 {
			continue
		}
		var ts, pw, cw, mw, gw []float64
		memSupported := true
		for _, p := range node.Samples {
			ts = append(ts, p.Timestamp)
			pw = append(pw, p.TotalWatts())
			cw = append(cw, p.CPUWatts())
			if p.MemWatts() == variorum.Unsupported {
				memSupported = false
			} else {
				mw = append(mw, p.MemWatts())
			}
			gw = append(gw, p.TotalGPUWatts())
			if p.TotalWatts() > s.MaxNodePowerW {
				s.MaxNodePowerW = p.TotalWatts()
			}
		}
		nodeMeans = append(nodeMeans, stats.MustMean(pw))
		cpuMeans = append(cpuMeans, stats.MustMean(cw))
		if memSupported && len(mw) > 0 {
			memMeans = append(memMeans, stats.MustMean(mw))
		}
		gpuMeans = append(gpuMeans, stats.MustMean(gw))
		if len(ts) >= 2 {
			e, err := stats.TrapezoidIntegral(ts, pw)
			if err == nil {
				nodeEnergies = append(nodeEnergies, e)
			}
		}
	}
	if len(nodeMeans) == 0 {
		return s, fmt.Errorf("powermon: job %d produced no samples", jp.JobID)
	}
	s.AvgNodePowerW = stats.MustMean(nodeMeans)
	s.AvgCPUW = stats.MustMean(cpuMeans)
	s.AvgGPUW = stats.MustMean(gpuMeans)
	if len(memMeans) > 0 {
		s.AvgMemW = stats.MustMean(memMeans)
	} else {
		s.AvgMemW = variorum.Unsupported
	}
	if len(nodeEnergies) > 0 {
		s.AvgEnergyPerNodeJ = stats.MustMean(nodeEnergies)
	}
	return s, nil
}
