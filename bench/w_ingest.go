package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/tsdb"
)

// ingestSteady is the write path in the regime production lives in: the
// raw ring full, tsdb blocks sealing, compaction and GC running. Every
// node sits inside a running job and powermon samples at the paper's 2 s
// cadence into a durable store; there is no manager, no publishing and no
// query. One operation is one sample read, archived, WAL-appended and
// covered by an fsync; the timed unit is Cluster.RunFor(10 s): five
// sampling rounds and one maintenance pass on every rank.
type ingestSteady struct {
	c        *cluster.Cluster
	mons     []*powermon.Module
	storeDir string
	storeCfg tsdb.Config

	samples uint64 // total at the last round boundary
	br      *brokerBracket
	h0      tsdb.Health // summed over ranks at begin
	s0      uint64
	unsync  uint64
}

const (
	ingestJobs     = 7 // one per catalog application, so every seed samples the same mix of power signals
	ingestNodes    = 2 * ingestJobs
	ingestOp       = 10 * time.Second
	ingestRoundOps = 50  // 500 simulated seconds: one block seal per rank
	ingestWarmOps  = 220 // 1100 samples per rank: ring wrapped twice, four blocks sealed, about 2 s of set-up
)

func (w *ingestSteady) setup(e *env) error {
	nodes := ingestNodes
	if e.o.Quick {
		nodes = 7
	}
	c, err := newCluster(e, cluster.Config{Nodes: nodes})
	if err != nil {
		return err
	}
	w.c = c
	w.storeDir = filepath.Join(e.dir, "store")
	w.storeCfg = tsdb.Config{BlockSamples: blockSamples}
	w.mons, err = loadMonitors(c, powermon.Config{StoreDir: w.storeDir, Store: w.storeCfg})
	if err != nil {
		return err
	}
	src, err := newJobSource(rand.New(rand.NewSource(e.rng.Int63())),
		queueShape{MinNodes: 1, MaxNodes: 8, MinSec: 60, MaxSec: 600}, e.o.Queue)
	if err != nil {
		return err
	}
	if _, err := fillWithJobs(c, src, ingestJobs); err != nil {
		return err
	}
	for i := 0; i < ingestWarmOps; i++ {
		c.RunFor(ingestOp)
	}
	for rank, m := range w.mons {
		h, ok := m.StoreHealth()
		if !ok || h.SealedBlocks < 2 || m.Samples() <= bufferSamples {
			return fmt.Errorf("rank %d not in steady state after warm-up: %d sealed blocks, %d samples",
				rank, h.SealedBlocks, m.Samples())
		}
	}
	w.samples = totalSamples(w.mons)
	return nil
}

func (w *ingestSteady) sumHealth() tsdb.Health {
	var sum tsdb.Health
	for _, m := range w.mons {
		h, _ := m.StoreHealth()
		sum.SealedBlocks += h.SealedBlocks
		sum.BytesOnDisk += h.BytesOnDisk
		sum.AppendedSamples += h.AppendedSamples
		if h.UnsyncedSamples > sum.UnsyncedSamples {
			sum.UnsyncedSamples = h.UnsyncedSamples
		}
	}
	return sum
}

func (w *ingestSteady) begin(e *env) {
	w.br = bracketBrokers(w.c)
	w.h0 = w.sumHealth()
	w.s0 = w.samples
	w.unsync = 0
}

func (w *ingestSteady) round(e *env) (int64, int64) {
	sp := e.tr.beginReq("round")
	appended0 := w.sumHealth().AppendedSamples
	for i := 0; i < ingestRoundOps; i++ {
		e.lat = append(e.lat, runFor(e, w.c, ingestOp))
	}
	now := totalSamples(w.mons)
	read := now - w.samples
	w.samples = now
	h := w.sumHealth()
	if h.UnsyncedSamples > w.unsync {
		w.unsync = h.UnsyncedSamples
	}
	e.tr.end(sp)
	// A sample that was read but never reached the store's log failed.
	return int64(read), int64(read - (h.AppendedSamples - appended0))
}

func (w *ingestSteady) end(e *env, ops int64, m metricSet) {
	w.br.end(w.c, ops, m)
	h := w.sumHealth()
	samples := float64(w.samples - w.s0)
	m.set("powermon.samples_per_op", samples/float64(ops))
	m.set("tsdb.disk_bytes_per_sample", float64(h.BytesOnDisk)/float64(h.AppendedSamples))
	m.set("tsdb.seals_per_ksample", float64(h.SealedBlocks-w.h0.SealedBlocks)/samples*1000)
	m.set("tsdb.unsynced_max", float64(w.unsync))
}

func (w *ingestSteady) verify(e *env) error {
	for rank, m := range w.mons {
		h, _ := m.StoreHealth()
		if h.AppendedSamples != m.Samples() {
			return fmt.Errorf("rank %d: %d samples read, %d appended to the store", rank, m.Samples(), h.AppendedSamples)
		}
	}
	// Reopen one rank's directory the way a restarted node agent would:
	// what comes back must be every sample, in time order.
	const rank = 1
	want := w.mons[rank].Samples()
	if err := w.c.Inst.Broker(rank).UnloadModule(powermon.ModuleName); err != nil {
		return fmt.Errorf("rank %d: closing store: %w", rank, err)
	}
	st, err := tsdb.Open(filepath.Join(w.storeDir, fmt.Sprintf("rank-%04d", rank)), w.storeCfg)
	if err != nil {
		return fmt.Errorf("rank %d: reopen: %w", rank, err)
	}
	defer st.Close()
	all, err := st.All()
	if err != nil {
		return fmt.Errorf("rank %d: read back: %w", rank, err)
	}
	if durable := st.Health().DurableSamples; uint64(len(all)) != want || durable != want {
		return fmt.Errorf("rank %d: reopened store holds %d samples (%d durable), want %d", rank, len(all), durable, want)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Timestamp <= all[i-1].Timestamp {
			return fmt.Errorf("rank %d: timestamps not increasing at sample %d", rank, i)
		}
	}
	return nil
}

func (w *ingestSteady) close() {
	if w.c != nil {
		// Unloading closes every rank's store files.
		_ = w.c.Inst.UnloadModuleAll(powermon.ModuleName)
		w.c.Close()
	}
	if w.storeDir != "" {
		_ = os.RemoveAll(w.storeDir)
	}
}
