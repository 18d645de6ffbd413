// Package durable is the persistence subsystem behind pramcc.Open and
// Service.Persist: snapshot files (PCCS) for published labelings, a
// write-ahead log (PCCW segments) of ingested batches, and an
// atomically-replaced MANIFEST tying them together. The contract is
// checkpoint-plus-delta-stream: a dense snapshot is written rarely
// (every K batches), the batch stream is logged continuously with one
// fsync per batch, and recovery is the newest valid snapshot plus an
// exactly-once replay of the WAL records past its sequence number.
//
// Crash discipline, enforced by the crash-injection suite
// (crash_test.go) at every write-site byte offset:
//
//   - WAL appends are framed with per-record CRCs and fsynced per
//     batch, so a crash can only tear the final record; recovery
//     truncates the segment at the first bad record and keeps
//     everything before it.
//   - Snapshots are written to fresh uniquely-named files and become
//     reachable only when the MANIFEST — replaced via write-temp,
//     fsync, rename, fsync-dir — points at them, so a half-written
//     snapshot is never consulted.
//   - The WAL is retained back to the manifest's fallback snapshot, so
//     recovery converges on the same labeling from either manifest
//     entry even if the newest snapshot file is damaged.
//
// Any write or sync failure poisons the store: the failed write leaves
// the durable tail unknowable (the fsync-error discipline), so every
// later mutation returns the original error and the caller keeps
// serving from memory while refusing to acknowledge new durable state.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/obs"
)

// Durability metrics, process-wide across stores: the counters
// aggregate, and the gauges describe whichever store wrote last. Under
// ccserve -shards N -data every tenant has its own store, so
// pramcc_durable_seq and pramcc_durable_snapshot_seq follow the tenant
// that logged or checkpointed most recently.
var (
	mWALAppends = obs.Default.Counter("pramcc_wal_appends_total",
		"batch records appended (and fsynced) to the ingest write-ahead log")
	mWALBytes = obs.Default.Counter("pramcc_wal_append_bytes_total",
		"bytes appended to the ingest write-ahead log")
	mCheckpoints = obs.Default.Counter("pramcc_checkpoints_total",
		"snapshot checkpoints written by durable stores")
	mDurableSeq = obs.Default.Gauge("pramcc_durable_seq",
		"last batch sequence number made durable (logged and fsynced) by the most recent store")
	mDurableSnapSeq = obs.Default.Gauge("pramcc_durable_snapshot_seq",
		"batch sequence number covered by the most recently checkpointed snapshot")
)

// lastCheckpointNanos feeds the scrape-time checkpoint-age gauge.
var lastCheckpointNanos atomic.Int64

func init() {
	obs.Default.GaugeFunc("pramcc_durable_snapshot_age_seconds",
		"seconds since a durable store last checkpointed a snapshot (-1 before the first)",
		func() float64 {
			ns := lastCheckpointNanos.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// Recovered is the warm-start state Open reconstructs from an existing
// store directory: the newest valid snapshot's labeling and the WAL
// records logged after it, in sequence order. The caller restores the
// labeling and replays the records exactly once.
type Recovered struct {
	// Labels is the snapshot's canonical labeling (labels[v] is the
	// minimum vertex id of v's component).
	Labels []int32
	// SnapshotSeq is the batch sequence number the snapshot reflects.
	SnapshotSeq uint64
	// Records are the pending WAL records with Seq > SnapshotSeq,
	// contiguous and ascending.
	Records []Record
}

// segInfo tracks one live WAL segment file.
type segInfo struct {
	name  string
	start uint64 // sequence number of the segment's first record
}

// Store is a durable snapshot + WAL store rooted at one directory.
// Writers (LogSpan, LogGrow, Checkpoint) must be externally
// serialized, exactly like the Service write path that drives them.
type Store struct {
	dir  string
	fsys FS

	seq         uint64 // last durably logged batch seq
	snapSeq     uint64 // seq covered by the manifest's newest snapshot
	snapFile    string
	prevSeq     uint64 // fallback snapshot seq (WAL retention floor)
	prevFile    string
	segments    []segInfo // live segments, ascending start; last is open
	seg         File      // open tail segment
	sinceCkpt   int       // batches logged since the last checkpoint
	encBuf      []byte    // reusable record encode buffer
	failed      error
	hasSnapshot bool
}

// Open opens the store directory, creating it (and returning a nil
// Recovered) when it holds no MANIFEST. With a manifest present it
// recovers: newest valid snapshot, WAL scan with torn-tail truncation,
// and the pending record list — see Recovered.
func Open(dir string, fsys FS) (*Store, *Recovered, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, fsys: fsys}
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		// Fresh store. Stray snapshot/WAL files from a crash before the
		// first checkpoint are unreachable (no manifest names them);
		// clear them so the directory starts clean.
		names, err := fsys.ReadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range names {
			if strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-") {
				if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := s.openSegment(1); err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	entries, err := decodeManifest(data)
	if err != nil {
		return nil, nil, err
	}
	rec, err := s.recover(entries)
	if err != nil {
		return nil, nil, err
	}
	// A recovered empty tail (its start is exactly seq+1 — had it held
	// records, seq would have advanced past it) is recreated by
	// openSegment under the same name; untrack it first so the segment
	// list never holds the tail twice.
	if n := len(s.segments); n > 0 && s.segments[n-1].start == s.seq+1 {
		s.segments = s.segments[:n-1]
	}
	if err := s.openSegment(s.seq + 1); err != nil {
		return nil, nil, err
	}
	mDurableSeq.Set(int64(s.seq))
	mDurableSnapSeq.Set(int64(s.snapSeq))
	return s, rec, nil
}

// recover loads the newest valid snapshot among entries and scans the
// WAL for the records past it.
func (s *Store) recover(entries []manifestEntry) (*Recovered, error) {
	var labels []int32
	var snapErrs []error
	ok := false
	for _, e := range entries {
		data, err := s.fsys.ReadFile(filepath.Join(s.dir, e.file))
		if err == nil {
			var seq uint64
			seq, labels, err = DecodeSnapshot(data)
			if err == nil && seq == e.seq {
				s.snapSeq, s.snapFile, ok = e.seq, e.file, true
				break
			}
			if err == nil {
				err = fmt.Errorf("durable: snapshot %s carries seq %d, manifest says %d", e.file, seq, e.seq)
			}
		}
		snapErrs = append(snapErrs, err)
	}
	if !ok {
		return nil, fmt.Errorf("durable: no manifest snapshot is readable: %v", snapErrs)
	}
	s.hasSnapshot = true
	s.prevSeq, s.prevFile = entries[len(entries)-1].seq, entries[len(entries)-1].file
	s.seq = s.snapSeq

	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, name := range names {
		var start uint64
		if n, err := fmt.Sscanf(name, "wal-%016x.pccw", &start); n == 1 && err == nil {
			segs = append(segs, segInfo{name: name, start: start})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	rec := &Recovered{Labels: labels, SnapshotSeq: s.snapSeq}
	next := s.snapSeq + 1
	var live []segInfo
	broken := false
	for _, seg := range segs {
		path := filepath.Join(s.dir, seg.name)
		// Once the record stream breaks — torn tail, damaged header, or
		// a sequence gap — every later segment belongs to a timeline
		// that was never acknowledged; it must be deleted, or a future
		// recovery could splice its stale records after fresh ones that
		// reuse the same sequence numbers.
		if broken {
			if err := s.fsys.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			return nil, err
		}
		firstSeq, recs, tornAt, err := DecodeSegment(data)
		if err != nil || firstSeq > next {
			// A damaged header (crash inside openSegment) holds no
			// records; a sequence gap means the records are unreachable
			// from the snapshot. Either way the file is dead.
			broken = true
			if err := s.fsys.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		for _, r := range recs {
			if r.Seq < next {
				continue // already covered by the snapshot
			}
			rec.Records = append(rec.Records, r)
			next = r.Seq + 1
		}
		if tornAt < len(data) {
			// Torn tail: cut the damage away so future scans see a clean
			// segment. A segment torn before its first record is simply
			// an empty file — remove it instead.
			broken = true
			if tornAt == walHeaderSize {
				if err := s.fsys.Remove(path); err != nil {
					return nil, err
				}
				continue
			}
			if err := s.fsys.Truncate(path, int64(tornAt)); err != nil {
				return nil, err
			}
		}
		live = append(live, seg)
	}
	s.segments = live
	s.seq = next - 1
	s.sinceCkpt = len(rec.Records)
	return rec, nil
}

// openSegment creates and syncs a fresh tail segment whose first
// record will carry seq start.
func (s *Store) openSegment(start uint64) error {
	name := fmt.Sprintf("wal-%016x.pccw", start)
	f, err := s.fsys.Create(filepath.Join(s.dir, name))
	if err != nil {
		return s.fail(err)
	}
	if _, err := f.Write(appendSegmentHeader(nil, start)); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		f.Close()
		return s.fail(err)
	}
	s.seg = f
	s.segments = append(s.segments, segInfo{name: name, start: start})
	return nil
}

// fail poisons the store with its first error; every later mutation
// returns it.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("durable: store failed, refusing further writes: %w", err)
	}
	return s.failed
}

// Failed returns the poisoning error, nil while the store is healthy.
func (s *Store) Failed() error { return s.failed }

// Seq returns the last durably logged batch sequence number.
func (s *Store) Seq() uint64 { return s.seq }

// SnapshotSeq returns the sequence number covered by the manifest's
// newest snapshot.
func (s *Store) SnapshotSeq() uint64 { return s.snapSeq }

// BatchesSinceCheckpoint returns how many batches have been logged (or
// recovered) since the last checkpoint — the checkpoint-every-K input.
func (s *Store) BatchesSinceCheckpoint() int { return s.sinceCkpt }

// LogSpan appends one span batch to the WAL and fsyncs it, returning
// the batch's assigned sequence number. The record is durable when
// LogSpan returns nil.
func (s *Store) LogSpan(span graph.EdgeSpan) (uint64, error) {
	return s.logRecord(func(buf []byte, seq uint64) []byte {
		return AppendSpanRecord(buf, seq, span)
	})
}

// LogGrow appends a grow-to-n record to the WAL and fsyncs it.
func (s *Store) LogGrow(n int) (uint64, error) {
	return s.logRecord(func(buf []byte, seq uint64) []byte {
		return AppendGrowRecord(buf, seq, n)
	})
}

func (s *Store) logRecord(enc func(buf []byte, seq uint64) []byte) (uint64, error) {
	if s.failed != nil {
		return 0, s.failed
	}
	seq := s.seq + 1
	s.encBuf = enc(s.encBuf[:0], seq)
	if _, err := s.seg.Write(s.encBuf); err != nil {
		return 0, s.fail(err)
	}
	if err := s.seg.Sync(); err != nil {
		return 0, s.fail(err)
	}
	s.seq = seq
	s.sinceCkpt++
	mWALAppends.Inc()
	mWALBytes.Add(int64(len(s.encBuf)))
	mDurableSeq.Set(int64(seq))
	return seq, nil
}

// Checkpoint persists labels as the snapshot covering seq, swaps the
// manifest to it, rotates the tail segment, and drops WAL segments
// that precede the new fallback snapshot. seq must be the store's
// current Seq() (a batch-boundary checkpoint) or Seq()+1 (a full
// rebuild — Service.Update — which consumes a sequence number of its
// own so replay cannot double-apply across it).
func (s *Store) Checkpoint(labels []int32, seq uint64) error {
	if s.failed != nil {
		return s.failed
	}
	if seq != s.seq && seq != s.seq+1 {
		return fmt.Errorf("durable: checkpoint seq %d out of step with store seq %d", seq, s.seq)
	}
	snapName := fmt.Sprintf("snap-%016x.pccs", seq)
	f, err := s.fsys.Create(filepath.Join(s.dir, snapName))
	if err != nil {
		return s.fail(err)
	}
	if err := WriteSnapshot(f, seq, labels); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.fail(err)
	}
	if err := f.Close(); err != nil {
		return s.fail(err)
	}
	entries := []manifestEntry{{file: snapName, seq: seq}}
	if s.hasSnapshot && s.snapFile != snapName {
		entries = append(entries, manifestEntry{file: s.snapFile, seq: s.snapSeq})
	}
	if err := writeManifest(s.fsys, s.dir, entries); err != nil {
		return s.fail(err)
	}

	// The manifest now names the new snapshot; everything below is
	// space reclamation and tail rotation, bounded by the same
	// fail-stop discipline but never able to lose acknowledged state.
	droppedSnap := s.prevFile
	if len(entries) == 2 {
		s.prevFile, s.prevSeq = entries[1].file, entries[1].seq
	} else {
		s.prevFile, s.prevSeq = snapName, seq
	}
	s.snapFile, s.snapSeq = snapName, seq
	s.hasSnapshot = true
	s.seq = seq
	s.sinceCkpt = 0
	if droppedSnap != "" && droppedSnap != s.prevFile && droppedSnap != s.snapFile {
		if err := s.fsys.Remove(filepath.Join(s.dir, droppedSnap)); err != nil {
			return s.fail(err)
		}
	}
	if err := s.rotate(); err != nil {
		return err
	}
	if err := s.dropAppliedSegments(); err != nil {
		return err
	}
	mCheckpoints.Inc()
	mDurableSnapSeq.Set(int64(seq))
	mDurableSeq.Set(int64(seq))
	lastCheckpointNanos.Store(time.Now().UnixNano())
	return nil
}

// rotate closes the tail segment and opens a fresh one at seq+1,
// unless the tail is already empty at exactly that position.
func (s *Store) rotate() error {
	tail := s.segments[len(s.segments)-1]
	if tail.start == s.seq+1 {
		return nil // freshly opened, no records yet — keep it
	}
	if err := s.seg.Close(); err != nil {
		return s.fail(err)
	}
	return s.openSegment(s.seq + 1)
}

// dropAppliedSegments removes WAL segments whose records all precede
// the fallback snapshot — they can never be replayed again, from
// either manifest entry.
func (s *Store) dropAppliedSegments() error {
	floor := s.prevSeq
	keep := s.segments[:0]
	for i, seg := range s.segments {
		// A segment's records end where the next segment starts; only a
		// fully-superseded segment (next.start ≤ floor+1) is deletable,
		// and the open tail never is.
		if i+1 < len(s.segments) && s.segments[i+1].start <= floor+1 {
			if err := s.fsys.Remove(filepath.Join(s.dir, seg.name)); err != nil {
				return s.fail(err)
			}
			continue
		}
		keep = append(keep, seg)
	}
	s.segments = keep
	return nil
}

// Close closes the tail segment. Appends are fsynced individually, so
// Close flushes nothing; it only releases the handle. Idempotent.
func (s *Store) Close() error {
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}
