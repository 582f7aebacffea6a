package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/tsdb"
)

// buildStoreCluster assembles a monitored sim cluster whose node agents
// spill to durable stores under dir, returning the per-rank modules so
// tests can crash the stores directly (power loss, not clean shutdown).
func buildStoreCluster(t *testing.T, size int, dir string) (*cluster.Cluster, []*powermon.Module) {
	t.Helper()
	c, err := cluster.New(cluster.Config{System: cluster.Lassen, Nodes: size, Seed: 11})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	mods := make([]*powermon.Module, size)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		m := powermon.New(powermon.Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
			BufferSamples:  64, // tiny ring: history lives in the store
			StoreDir:       dir,
			Store:          tsdb.Config{BlockSamples: 256, SyncEvery: 16},
		})
		mods[rank] = m
		return m
	}); err != nil {
		t.Fatalf("load monitor: %v", err)
	}
	return c, mods
}

// collectAll fetches a rank's full sample history through the product
// query path (the monitor's raw read with an unbounded window).
func collectAll(t *testing.T, c *cluster.Cluster, rank int32) powermon.NodeSamples {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ns, err := powermon.NewClient(c.Inst.Root()).CollectNodeContext(ctx, rank, 0, 1e9)
	if err != nil {
		t.Fatalf("collect rank %d: %v", rank, err)
	}
	return ns
}

// TestStoreCrashRestartRecovery kills every node agent's store mid-write
// (power loss, no Close), rebuilds the cluster over the same directories,
// and asserts the durability contract end to end: every fsynced sample
// survives byte-for-byte, at most the unsynced tail is lost, and the
// store accounting invariant holds before and after.
//
// Probes resolve synchronously in simulation, so no virtual time passes
// between the pre-crash snapshot and the crash — the counters are exact.
func TestStoreCrashRestartRecovery(t *testing.T) {
	const size = 4
	dir := t.TempDir()
	c1, mods1 := buildStoreCluster(t, size, dir)
	// ~300 samples per rank: rings (64) evict, a 256-sample block seals,
	// and the odd tail leaves unsynced records behind.
	c1.RunFor(10*time.Minute + 3*time.Second)

	pre := make([]powermon.NodeSamples, size)
	heal := make([]tsdb.Health, size)
	for r := 0; r < size; r++ {
		pre[r] = collectAll(t, c1, int32(r))
		if pre[r].Source != "tsdb" {
			t.Fatalf("rank %d: pre-crash collect from %q, want the store (ring must have evicted)",
				r, pre[r].Source)
		}
		h, ok := mods1[r].StoreHealth()
		if !ok {
			t.Fatalf("rank %d has no store", r)
		}
		heal[r] = h
		if got := uint64(len(pre[r].Samples)); got != h.AppendedSamples {
			t.Fatalf("rank %d: collected %d samples, store appended %d", r, got, h.AppendedSamples)
		}
	}
	if vs := chaos.Check(chaos.CheckConfig{
		Brokers: c1.Inst.Brokers, Monitor: true, Store: true, ExpectAllReachable: true,
	}); len(vs) > 0 {
		t.Fatalf("pre-crash violations:\n%s", violationList(vs))
	}

	for _, m := range mods1 {
		m.CrashStore()
	}
	c1.Close()

	c2, mods2 := buildStoreCluster(t, size, dir)
	defer c2.Close()
	for r := 0; r < size; r++ {
		post := collectAll(t, c2, int32(r))
		durable := heal[r].DurableSamples
		if uint64(len(post.Samples)) != durable {
			t.Fatalf("rank %d: recovered %d samples, want the %d durable at crash (of %d appended)",
				r, len(post.Samples), durable, heal[r].AppendedSamples)
		}
		want, err := json.Marshal(pre[r].Samples[:durable])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(post.Samples)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d: recovered history diverges from the pre-crash snapshot", r)
		}
		h2, ok := mods2[r].StoreHealth()
		if !ok || h2.Recoveries < 1 {
			t.Fatalf("rank %d: Recoveries = %d after restart", r, h2.Recoveries)
		}
	}
	// Monitor's monotonicity check is skipped here by design: the sim
	// clock restarts at zero, so fresh samples legitimately carry smaller
	// timestamps than the recovered history (real deployments have a
	// monotonic wall clock). The store books must still balance.
	if vs := chaos.Check(chaos.CheckConfig{
		Brokers: c2.Inst.Brokers, Store: true, ExpectAllReachable: true,
	}); len(vs) > 0 {
		t.Fatalf("post-restart violations:\n%s", violationList(vs))
	}
}

// TestStoreTornRecordAfterCrash tears the final WAL record of one rank's
// store after the crash — the partial write a power failure leaves behind
// — and asserts recovery truncates rather than fails: the rank comes back
// with exactly one fewer sample and everything before it intact.
func TestStoreTornRecordAfterCrash(t *testing.T) {
	const size = 2
	dir := t.TempDir()
	c1, mods1 := buildStoreCluster(t, size, dir)
	c1.RunFor(10*time.Minute + 3*time.Second)

	pre := collectAll(t, c1, 1)
	h, ok := mods1[1].StoreHealth()
	if !ok {
		t.Fatal("rank 1 has no store")
	}
	for _, m := range mods1 {
		m.CrashStore()
	}
	c1.Close()

	// Tear the newest WAL segment by a few bytes. Segment names are
	// fixed-width hex, so the lexical max is the numeric max.
	segs, err := filepath.Glob(filepath.Join(dir, "rank-0001", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err %v)", err)
	}
	sort.Strings(segs)
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 16 {
		t.Fatalf("newest segment only %d bytes — nothing to tear", fi.Size())
	}
	if err := os.Truncate(newest, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	c2, mods2 := buildStoreCluster(t, size, dir)
	defer c2.Close()
	post := collectAll(t, c2, 1)
	durable := h.DurableSamples
	if uint64(len(post.Samples)) != durable-1 {
		t.Fatalf("recovered %d samples, want %d (the %d durable at crash minus the torn record)",
			len(post.Samples), durable-1, durable)
	}
	want, err := json.Marshal(pre.Samples[:durable-1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(post.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("surviving history diverges after torn-record truncation")
	}
	h2, ok := mods2[1].StoreHealth()
	if !ok || h2.TornRecords < 1 {
		t.Fatalf("TornRecords = %d, want >= 1", h2.TornRecords)
	}
	if vs := chaos.Check(chaos.CheckConfig{
		Brokers: c2.Inst.Brokers, Store: true, ExpectAllReachable: true,
	}); len(vs) > 0 {
		t.Fatalf("violations after torn-record recovery:\n%s", violationList(vs))
	}
}
