package tsdb

import (
	"encoding/json"
	"math"
	"os"
	"sort"

	"fluxpower/internal/variorum"
)

// tierIndexEvery is how many tier-log records share one resident index
// entry: a windowed read decodes at most this many records it then
// filters out at either end.
const tierIndexEvery = 64

// tierState is one compaction period: the fold carried across seals and
// the resident summary of its log. The buckets themselves live only in
// the log; what stays in memory is the coverage scalars and one
// (StartSec, offset) entry per tierIndexEvery records.
type tierState struct {
	// fold is fed every sealed sample exactly once, at seal, the same
	// fold the in-memory archive runs; out queues the buckets it
	// finalizes until the next flush persists them.
	fold variorum.Fold
	out  []variorum.Bucket
	// through is the EndSec of the newest bucket that is fsynced in the
	// log (-Inf when none): persisted through, never merely folded
	// through, which is what lets GC trust it.
	through float64
	first   float64 // StartSec of the oldest persisted bucket
	count   int     // persisted buckets
	size    int64   // clean log bytes: where the next bucket is written
	index   []tierIdx
}

type tierIdx struct {
	startSec float64
	off      int64
}

// adopt notes one persisted bucket whose frame (header plus payloadLen
// bytes) starts at t.size.
func (t *tierState) adopt(r variorum.Bucket, payloadLen int) {
	if t.count%tierIndexEvery == 0 {
		t.index = append(t.index, tierIdx{r.StartSec, t.size})
	}
	if t.count == 0 {
		t.first = r.StartSec
	}
	t.count++
	t.through = math.Max(t.through, r.EndSec)
	t.size += int64(8 + payloadLen)
}

func (s *Store) tier(period float64) *tierState {
	for _, t := range s.tiers {
		if t.fold.PeriodSec == period {
			return t
		}
	}
	return nil
}

// foldSealed pushes freshly sealed samples through every tier's carried
// fold and queues the buckets they finalize.
func (s *Store) foldSealed(samples []variorum.NodePower) {
	for _, t := range s.tiers {
		for _, p := range samples {
			if b, ok := t.fold.Push(p); ok {
				t.out = append(t.out, b)
			}
		}
	}
}

// primeTiers seeds the carried folds, once per Open, with one
// decode pass over the sealed blocks that can still matter: from one
// block before the oldest tier's persisted mark (the priming block,
// which supplies the predecessor sample of the first new trapezoid
// segment) to the newest. Buckets this re-forms at or below a tier's
// mark are dropped by the flush filter; buckets above it were lost
// between the block fsync and the tier-log fsync and are regenerated.
func (s *Store) primeTiers() error {
	start := len(s.blocks)
	for _, t := range s.tiers {
		i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].maxTs >= t.through })
		start = min(start, max(i-1, 0))
	}
	for _, b := range s.blocks[start:] {
		samples, err := readBlock(b.path)
		if err != nil {
			return err
		}
		s.foldSealed(samples)
	}
	return nil
}

// flushTiersLocked persists every queued bucket past its tier's mark:
// one write at the log's clean end plus one fsync per tier that has
// any, and only then does the mark advance. A failed write leaves the
// queue and the mark alone, so the next pass rewrites the same bytes at
// the same offset.
func (s *Store) flushTiersLocked() error {
	for _, t := range s.tiers {
		fresh := t.out[:0]
		for _, r := range t.out {
			if r.EndSec > t.through {
				fresh = append(fresh, r)
			}
		}
		t.out = fresh
		if len(fresh) == 0 {
			continue
		}
		var buf []byte
		lens := make([]int, len(fresh))
		for i, r := range fresh {
			payload, err := json.Marshal(r)
			if err != nil {
				return err
			}
			buf = appendFrame(buf, payload)
			lens[i] = len(payload)
		}
		if err := writeSyncAt(s.tierLogPath(t.fold.PeriodSec), 0, buf, t.size); err != nil {
			return err
		}
		for i, r := range fresh {
			t.adopt(r, lens[i])
		}
		t.out = fresh[:0]
	}
	return nil
}

// writeSyncAt writes data at off in the file at path, created if absent
// and opened with the extra flag bits, and fsyncs it.
func writeSyncAt(path string, flag int, data []byte, off int64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, off); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readTier returns one tier's persisted buckets with EndSec > start and
// StartSec <= end, oldest first. Buckets are sorted and non-overlapping,
// so the index narrows the read to the byte range between the last
// entry starting at or before start and the first entry starting after
// end; only that range is read and decoded. A log that cannot be read
// answers with what could be decoded.
func (s *Store) readTier(t *tierState, start, end float64) []variorum.Bucket {
	out := []variorum.Bucket{}
	if t == nil || t.count == 0 {
		return out
	}
	lo := sort.Search(len(t.index), func(i int) bool { return t.index[i].startSec > start })
	hi := sort.Search(len(t.index), func(i int) bool { return t.index[i].startSec > end })
	from, to := t.index[max(lo-1, 0)].off, t.size
	if hi < len(t.index) {
		to = t.index[hi].off
	}
	if to <= from {
		return out
	}
	f, err := os.Open(s.tierLogPath(t.fold.PeriodSec))
	if err != nil {
		return out
	}
	defer f.Close()
	buf := make([]byte, to-from)
	n, _ := f.ReadAt(buf, from)
	payloads, _, _ := splitFrames(buf[:n])
	for _, payload := range payloads {
		var r variorum.Bucket
		if json.Unmarshal(payload, &r) == nil && r.EndSec > start && r.StartSec <= end {
			out = append(out, r)
		}
	}
	return out
}

// gcLocked deletes the oldest sealed blocks while the size or age bound
// is exceeded — but only a block whose successor every configured tier
// has fully persisted (successor's maxTs strictly below every tier's
// mark). Deleted samples therefore always live inside persisted tier
// buckets, which a recovering archive adopts wholesale before replaying
// any raw sample, so no bucket is ever half-rebuilt; and the oldest
// retained block can always serve as the priming block of the next
// Open. The newest block is always retained.
func (s *Store) gcLocked(nowSec float64) error {
	var err error
	deleted := 0
scan:
	for len(s.blocks)-deleted > 1 {
		cand, next := s.blocks[deleted], s.blocks[deleted+1]
		over := s.cfg.RetainBytes >= 0 && s.blockBytes > s.cfg.RetainBytes
		old := s.cfg.RetainSec > 0 && cand.maxTs < nowSec-s.cfg.RetainSec
		if !over && !old {
			break
		}
		for _, t := range s.tiers {
			if next.maxTs >= t.through {
				break scan // a tier has not persisted past the priming block
			}
		}
		if err = os.Remove(cand.path); err != nil {
			break
		}
		s.blockBytes -= cand.bytes
		s.gcLostTs = math.Max(s.gcLostTs, cand.maxTs)
		deleted++
	}
	if deleted > 0 {
		s.blocks = s.blocks[deleted:]
		s.writeMeta()
	}
	return err
}
