// Package tsdb is the node agent's durable power-telemetry store: the
// on-disk backing the in-memory powermon archive recovers from after a
// crash, and the long-memory the gateway serves historical queries from
// once the raw ring has evicted.
//
// The write path is a segmented append-only WAL of CRC32-framed JSON
// records with batched fsync: appends accumulate in memory and become
// durable on Sync (driven by SyncEvery and the owner's maintenance
// timer), so a crash loses at most the un-synced tail and a torn final
// write truncates, never corrupts. Every BlockSamples samples the head
// seals into an immutable Gorilla-compressed block file (delta-of-delta
// timestamps, XOR-encoded per-component channels — see block.go), after
// which the covered WAL segments are deleted. Each sealed head is folded
// once, from memory, into 1min/10min variorum.Buckets by variorum.Fold,
// the fold the in-memory archive runs; finalized buckets are persisted at the
// next Maintain to append-only tier logs that are never
// garbage-collected and are read back from disk, not mirrored in memory.
// GC then deletes sealed-block prefixes under a size bound, but only
// blocks every tier has fully persisted — deleted samples always live
// inside persisted buckets, which recovery adopts wholesale, so no
// bucket is ever double-counted or half-rebuilt.
//
// The store is safe for concurrent use and deliberately simtime-agnostic:
// callers pass sample-time seconds into Maintain/GC, so the same code
// runs under the deterministic simulation and a wall-clock deployment.
package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fluxpower/internal/variorum"
)

// Defaults; see Config.
const (
	DefaultBlockSamples = 4096
	DefaultSegmentBytes = 1 << 20
	DefaultSyncEvery    = 64
	DefaultRetainBytes  = 256 << 20
)

// Config tunes a Store. The zero value selects every default.
type Config struct {
	// BlockSamples is how many samples accumulate in the head before it
	// seals into a compressed block (default 4096).
	BlockSamples int
	// SegmentBytes rotates the active WAL segment once it grows past
	// this size (default 1 MiB).
	SegmentBytes int64
	// SyncEvery fsyncs the WAL after this many appended records
	// (default 64); Sync and Maintain force it earlier.
	SyncEvery int
	// RetainBytes bounds sealed-block bytes on disk (default 256 MiB;
	// negative disables the size bound).
	RetainBytes int64
	// TierPeriodsSec are the compaction bucket periods (default 60 and
	// 600, matching powermon.DefaultTiers; an explicit empty non-nil
	// slice disables compaction — and with it, any GC alignment
	// guarantee).
	TierPeriodsSec []float64
}

func (c Config) withDefaults() Config {
	if c.BlockSamples <= 0 {
		c.BlockSamples = DefaultBlockSamples
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = DefaultSyncEvery
	}
	if c.RetainBytes == 0 {
		c.RetainBytes = DefaultRetainBytes
	}
	if c.TierPeriodsSec == nil {
		c.TierPeriodsSec = []float64{60, 600}
	}
	return c
}

// Health is the store's operational snapshot, surfaced through
// power-monitor.stats/status and the gateway's /v1/metrics.
type Health struct {
	Segments        int     `json:"segments"`
	SealedBlocks    int     `json:"sealed_blocks"`
	BytesOnDisk     int64   `json:"bytes_on_disk"`
	HeadSamples     int     `json:"head_samples"`
	AppendedSamples uint64  `json:"appended_samples"`
	DurableSamples  uint64  `json:"durable_samples"`
	UnsyncedSamples uint64  `json:"unsynced_samples"`
	LastFsyncLagSec float64 `json:"last_fsync_lag_sec"`
	Recoveries      int     `json:"recoveries"`
	TornRecords     int     `json:"torn_records,omitempty"`
	DroppedSegments int     `json:"dropped_segments,omitempty"`
	DroppedBlocks   int     `json:"dropped_blocks,omitempty"`
	TierRecords     int     `json:"tier_records"`
	GCLostSec       float64 `json:"gc_lost_sec,omitempty"`
}

// blockMeta is one sealed block's in-memory index entry: the sparse time
// index is the sorted list of these, binary-searched per query.
type blockMeta struct {
	path  string
	first uint64
	count int
	minTs float64
	maxTs float64
	bytes int64
}

// storeMeta is the best-effort meta.json sidecar.
type storeMeta struct {
	Recoveries int     `json:"recoveries"`
	GCLost     bool    `json:"gc_lost,omitempty"`
	GCLostSec  float64 `json:"gc_lost_sec,omitempty"`
}

// Store is a per-node durable time-series store. All methods are safe
// for concurrent use.
type Store struct {
	mu  sync.Mutex
	dir string
	cfg Config

	blocks     []blockMeta
	blockBytes int64
	head       []variorum.NodePower // unsealed tail, mirrored in the WAL
	segments   []segmentInfo        // non-active segments still on disk
	wal        *walWriter

	sealed   uint64 // global index of the first un-sealed sample
	appended uint64 // global index of the next sample
	durable  uint64 // global durability watermark

	lastAppendTs  float64
	lastDurableTs float64

	tiers []*tierState // one per configured period, in Config order

	gcLostTs float64 // newest sample timestamp lost to GC; -Inf when none

	recoveries      int
	tornRecords     int
	droppedSegments int
	droppedBlocks   int

	closed bool
}

var errClosed = fmt.Errorf("tsdb: store is closed")

// Open creates or recovers the store in dir. Recovery loads the sealed
// block index, then the tier logs' resident summaries, primes the tier
// accumulators from the newest blocks (see primeTiers), then replays the
// WAL (skipping records already covered by blocks, truncating a torn
// tail) — everything fsynced before the crash comes back, in order,
// byte-exactly.
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, cfg: cfg, gcLostTs: math.Inf(-1)}
	var meta storeMeta
	if data, err := os.ReadFile(s.metaPath()); err == nil {
		if json.Unmarshal(data, &meta) == nil {
			s.recoveries = meta.Recoveries
			if meta.GCLost {
				s.gcLostTs = meta.GCLostSec
			}
		}
	}
	if err := s.recoverBlocks(); err != nil {
		return nil, err
	}
	if len(s.blocks) > 0 && s.blocks[0].first > 0 && math.IsInf(s.gcLostTs, -1) {
		// GC ran before a lost meta.json: everything before the first
		// retained block is gone; its minTs is the conservative watermark.
		s.gcLostTs = s.blocks[0].minTs
	}
	hadState := false
	for _, p := range cfg.TierPeriodsSec {
		t := &tierState{fold: variorum.Fold{PeriodSec: p}, through: math.Inf(-1)}
		if err := s.recoverTierLog(t); err != nil {
			return nil, err
		}
		s.tiers = append(s.tiers, t)
		hadState = hadState || t.count > 0
	}
	if err := s.primeTiers(); err != nil {
		return nil, err
	}
	if err := s.recoverWAL(); err != nil {
		return nil, err
	}
	s.durable = s.appended
	if len(s.head) > 0 {
		s.lastAppendTs = s.head[len(s.head)-1].Timestamp
	} else if len(s.blocks) > 0 {
		s.lastAppendTs = s.blocks[len(s.blocks)-1].maxTs
	}
	s.lastDurableTs = s.lastAppendTs
	if hadState || len(s.blocks) > 0 || len(s.segments) > 0 || len(s.head) > 0 {
		s.recoveries++
	}
	wal, err := openSegment(dir, s.appended)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.writeMeta()
	return s, nil
}

func (s *Store) metaPath() string { return filepath.Join(s.dir, "meta.json") }

// writeMeta persists the meta sidecar best-effort: losing it degrades
// the GC watermark to a conservative estimate, never correctness.
func (s *Store) writeMeta() {
	meta := storeMeta{Recoveries: s.recoveries}
	if !math.IsInf(s.gcLostTs, -1) {
		meta.GCLost = true
		meta.GCLostSec = s.gcLostTs
	}
	if data, err := json.Marshal(meta); err == nil {
		_ = os.WriteFile(s.metaPath(), data, 0o644)
	}
}

func blockName(first uint64) string { return fmt.Sprintf("blk-%016x.blk", first) }

func parseBlockName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "blk-") || !strings.HasSuffix(name, ".blk") {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "blk-"), ".blk")
	if len(hexPart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// recoverBlocks loads the sealed-block index. A block that fails its CRC
// (torn seal) is deleted — its samples are still in the WAL — and so is
// anything after a gap in the index sequence.
func (s *Store) recoverBlocks() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	type cand struct {
		path  string
		first uint64
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseBlockName(e.Name()); ok {
			cands = append(cands, cand{filepath.Join(s.dir, e.Name()), first})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].first < cands[j].first })
	contiguous := true
	for _, c := range cands {
		if !contiguous {
			s.droppedBlocks++
			_ = os.Remove(c.path)
			continue
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			return err
		}
		h, _, derr := decodeBlockHeader(data)
		if derr != nil || (len(s.blocks) > 0 && c.first != s.sealed) {
			contiguous = false
			s.droppedBlocks++
			_ = os.Remove(c.path)
			continue
		}
		s.blocks = append(s.blocks, blockMeta{
			path: c.path, first: c.first, count: h.count,
			minTs: h.minTs, maxTs: h.maxTs, bytes: int64(len(data)),
		})
		s.blockBytes += int64(len(data))
		s.sealed = c.first + uint64(h.count)
	}
	s.appended = s.sealed
	return nil
}

// recoverWAL replays segments past the sealed watermark into the head.
// A torn tail is truncated on disk; a gap (which only a torn or lost
// intermediate segment can create) drops everything after it.
func (s *Store) recoverWAL() error {
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	expected := s.sealed
	broken := false
	adopted := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		payloads, clean, torn := splitFrames(data)
		if torn {
			s.tornRecords++
			_ = os.Truncate(seg.path, int64(clean))
		}
		seg.count = len(payloads)
		seg.bytes = int64(clean)
		if seg.first+uint64(seg.count) <= s.sealed {
			// Fully covered by sealed blocks: leftover from a crash between
			// block fsync and segment deletion.
			_ = os.Remove(seg.path)
			continue
		}
		if broken {
			s.droppedSegments++
			_ = os.Remove(seg.path)
			continue
		}
		kept := false
		for i, payload := range payloads {
			idx := seg.first + uint64(i)
			if idx < s.sealed {
				continue
			}
			if idx != expected {
				if len(s.head) == 0 && i == 0 && idx > expected {
					// The gap precedes everything replayable — a sealed block
					// was dropped (bit rot) and its covering segments are long
					// deleted. Adopt the segment as the new base and record
					// the loss below, rather than stranding the live tail.
					expected = idx
					adopted = true
				} else {
					broken = true
					break
				}
			}
			var p variorum.NodePower
			if err := json.Unmarshal(payload, &p); err != nil {
				s.tornRecords++
				broken = true
				break
			}
			s.head = append(s.head, p)
			expected++
			kept = true
		}
		if kept || !broken {
			s.segments = append(s.segments, seg)
		} else {
			s.droppedSegments++
			_ = os.Remove(seg.path)
		}
	}
	s.appended = expected
	s.sealed = expected - uint64(len(s.head))
	if adopted && len(s.head) > 0 {
		// Samples older than the adopted base are gone; the first survivor's
		// timestamp is the conservative loss watermark (Covers is strict, so
		// it marks everything before-or-at the survivor as suspect).
		if ts := s.head[0].Timestamp; ts > s.gcLostTs {
			s.gcLostTs = ts
		}
	}
	return nil
}

func (s *Store) tierLogPath(period float64) string {
	return filepath.Join(s.dir, "tier-"+strconv.FormatFloat(period, 'g', -1, 64)+".log")
}

// recoverTierLog rebuilds one tier's resident summary from its log,
// cutting the log back to its clean prefix: at a torn tail, or at the
// first framed payload that fails to decode. Both are a truncate to a
// frame boundary — the kept bytes are never rewritten, so no crash can
// leave the log shorter than that prefix.
func (s *Store) recoverTierLog(t *tierState) error {
	path := s.tierLogPath(t.fold.PeriodSec)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	payloads, _, torn := splitFrames(data)
	for _, payload := range payloads {
		var r variorum.Bucket
		if err := json.Unmarshal(payload, &r); err != nil {
			torn = true
			break
		}
		t.adopt(r, len(payload))
	}
	if torn {
		s.tornRecords++
		return os.Truncate(path, t.size)
	}
	return nil
}

// Append adds one sample. The sample lands in the in-memory head and the
// WAL's pending buffer; durability follows at the next sync (SyncEvery,
// Sync, Maintain, or a seal). Samples must arrive in non-decreasing
// timestamp order for queries and compaction to be meaningful.
func (s *Store) Append(p variorum.NodePower) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if shape := schemaOf(p); len(s.head) == 0 || shape != schemaOf(s.head[0]) {
		// A shape no block can hold would leave the head unsealable and
		// fail every later Append: refuse this one sample instead.
		if err := shape.encodable(); err != nil {
			return err
		}
		// Shape change (reconfigured node): seal the current run early so
		// every block stays single-schema.
		if len(s.head) > 0 {
			if err := s.seal(); err != nil {
				return err
			}
		}
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return err
	}
	s.wal.append(payload)
	s.head = append(s.head, p)
	s.appended++
	s.lastAppendTs = p.Timestamp
	if len(s.head) >= s.cfg.BlockSamples {
		if err := s.seal(); err != nil {
			return err
		}
	}
	if s.wal.size() >= s.cfg.SegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	if s.wal.pendingRecs >= s.cfg.SyncEvery {
		return s.syncLocked()
	}
	return nil
}

// rotate syncs and retires the active segment, opening a fresh one.
func (s *Store) rotate() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	old := segmentInfo{path: s.wal.path, first: s.wal.firstIndex,
		count: s.wal.count, bytes: s.wal.syncedBytes}
	if err := s.wal.f.Close(); err != nil {
		return err
	}
	s.segments = append(s.segments, old)
	wal, err := openSegment(s.dir, s.appended)
	if err != nil {
		return err
	}
	s.wal = wal
	return nil
}

// seal compresses the head into an immutable fsynced block, then deletes
// the WAL segments it covers (including the active one — its records are
// all in the block, so pending bytes are simply dropped) and starts a
// fresh segment. Crash-ordering: the block is durable before any segment
// is unlinked, so every sample exists on disk at every instant.
func (s *Store) seal() error {
	if len(s.head) == 0 {
		return nil
	}
	img, err := encodeBlock(s.head)
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, blockName(s.sealed))
	if err := writeSyncAt(path, os.O_TRUNC, img, 0); err != nil {
		return err
	}
	minTs, maxTs := s.head[0].Timestamp, s.head[0].Timestamp
	for _, p := range s.head[1:] {
		minTs = math.Min(minTs, p.Timestamp)
		maxTs = math.Max(maxTs, p.Timestamp)
	}
	s.blocks = append(s.blocks, blockMeta{
		path: path, first: s.sealed, count: len(s.head),
		minTs: minTs, maxTs: maxTs, bytes: int64(len(img)),
	})
	s.blockBytes += int64(len(img))
	s.sealed += uint64(len(s.head))
	s.foldSealed(s.head)
	s.head = nil
	if s.durable < s.sealed {
		s.durable = s.sealed
	}
	if s.durable == s.appended {
		s.lastDurableTs = s.lastAppendTs
	}

	// Every WAL record is now < sealed: drop them all.
	if err := s.wal.drop(); err != nil {
		return err
	}
	_ = os.Remove(s.wal.path)
	for _, seg := range s.segments {
		_ = os.Remove(seg.path)
	}
	s.segments = nil
	wal, err := openSegment(s.dir, s.appended)
	if err != nil {
		return err
	}
	s.wal = wal
	return nil
}

// Sync forces the WAL's pending records to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if _, err := s.wal.sync(); err != nil {
		return err
	}
	s.durable = s.appended
	s.lastDurableTs = s.lastAppendTs
	return nil
}

// Maintain is the owner's periodic housekeeping: sync the WAL, persist
// the tier buckets that seals have finalized since the last pass, then
// GC old blocks. Its cost follows what arrived since the last pass: with
// no new seal it is the WAL fsync alone and reads no block file. The
// argument, the caller's sample-time now, is unused: retention is bounded
// by size alone.
func (s *Store) Maintain(_ float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.flushTiersLocked(); err != nil {
		return err
	}
	return s.gcLocked()
}

// SelectRange returns every stored sample with timestamp in [min, max],
// oldest first: sealed blocks (via the sparse index), then the head —
// which still includes un-synced appends, so a store-backed read is
// always a superset of what a crash would preserve.
func (s *Store) SelectRange(min, max float64) ([]variorum.NodePower, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	var out []variorum.NodePower
	// The block index is time-ordered: binary-search the first block that
	// can overlap, scan until one starts past the window.
	i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].maxTs >= min })
	for ; i < len(s.blocks); i++ {
		b := s.blocks[i]
		if b.minTs > max {
			break
		}
		samples, err := readBlock(b.path)
		if err != nil {
			return nil, err
		}
		for _, p := range samples {
			if p.Timestamp >= min && p.Timestamp <= max {
				out = append(out, p)
			}
		}
	}
	for _, p := range s.head {
		if p.Timestamp >= min && p.Timestamp <= max {
			out = append(out, p)
		}
	}
	return out, nil
}

// readBlock reads and decodes one sealed block file.
func readBlock(path string) ([]variorum.NodePower, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, samples, err := decodeBlock(data)
	if err != nil {
		return nil, fmt.Errorf("tsdb: block %s: %w", filepath.Base(path), err)
	}
	return samples, nil
}

// All returns every stored sample, oldest first.
func (s *Store) All() ([]variorum.NodePower, error) {
	return s.SelectRange(math.Inf(-1), math.Inf(1))
}

// TierRecords returns the persisted compaction buckets for one period,
// oldest first, read back from the tier log; none once the store is
// closed.
func (s *Store) TierRecords(periodSec float64) []variorum.Bucket {
	return s.SelectTier(periodSec, math.Inf(-1), math.Inf(1))
}

// TierPeriods returns the configured compaction periods, finest first —
// the durable resolutions a query planner can choose from. A closed
// store offers none.
func (s *Store) TierPeriods() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	out := append([]float64(nil), s.cfg.TierPeriodsSec...)
	sort.Float64s(out)
	return out
}

// SelectTier returns the persisted compaction buckets of one period that
// intersect the window [start, end], oldest first: every bucket with
// EndSec > start and StartSec <= end. Buckets are retained forever (GC
// deletes raw blocks, never tier logs), so this is the read path for
// windows that have aged out of both the raw ring and the raw blocks.
// Only the byte range of the log that the resident index brackets is
// read (see readTier). A closed store returns nothing, as SelectRange
// fails.
func (s *Store) SelectTier(periodSec, start, end float64) []variorum.Bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.readTier(s.tier(periodSec), start, end)
}

// TierCoverage reports how far back one period's persisted buckets
// reach: the StartSec of the oldest bucket and the EndSec of the newest.
// ok is false when the period has no buckets yet, is not configured, or
// the store is closed.
func (s *Store) TierCoverage(periodSec float64) (firstStartSec, lastEndSec float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tier(periodSec)
	if s.closed || t == nil || t.count == 0 {
		return 0, 0, false
	}
	return t.first, t.through, true
}

// LostBeforeSec returns the newest sample timestamp GC has deleted
// (-Inf when nothing was lost) — the watermark a recovering archive
// adopts. The store holds everything after it.
func (s *Store) LostBeforeSec() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLostTs
}

// Health returns an operational snapshot.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		SealedBlocks:    len(s.blocks),
		HeadSamples:     len(s.head),
		AppendedSamples: s.appended,
		DurableSamples:  s.durable,
		UnsyncedSamples: s.appended - s.durable,
		LastFsyncLagSec: s.lastAppendTs - s.lastDurableTs,
		Recoveries:      s.recoveries,
		TornRecords:     s.tornRecords,
		DroppedSegments: s.droppedSegments,
		DroppedBlocks:   s.droppedBlocks,
	}
	h.BytesOnDisk = s.blockBytes
	for _, seg := range s.segments {
		h.BytesOnDisk += seg.bytes
		h.Segments++
	}
	if s.wal != nil {
		h.BytesOnDisk += s.wal.syncedBytes
		h.Segments++
	}
	for _, t := range s.tiers {
		h.TierRecords += t.count
	}
	if !math.IsInf(s.gcLostTs, -1) {
		h.GCLostSec = s.gcLostTs
	}
	return h
}

// Crash models an unclean node stop for tests and chaos scenarios: the
// WAL's pending buffer is dropped without flushing and every file is
// closed. The store is unusable afterwards; reopen with Open to recover
// exactly what a real crash would have left.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.wal.crash()
}

// Close syncs and closes the store. Closing an already-closed (or
// crashed) store is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.writeMeta()
	return s.wal.close()
}
