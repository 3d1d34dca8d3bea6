package server

import (
	"fmt"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// runCommitter is the leader's single writer (DESIGN.md §10.2): the only
// goroutine that mutates the shadow topology, the pool, the WAL and the
// stream position. It takes work from two sources in arrival order — the
// batcher's cut-batch hand-off (JSON ingest) and the fast path's frame
// queue (binary ingest) — and runs each through commitCut or commitGroup.
// It exits once the batcher has flushed its window and the fast path has
// stopped admitting frames and every admitted frame is committed (Drain).
func (s *Server) runCommitter() {
	defer close(s.committed)
	cuts, frames, quit := s.bat.cuts, s.fp.ch, s.fp.quit
	for cuts != nil || quit != nil {
		select {
		case cb, ok := <-cuts:
			if !ok {
				cuts = nil
				continue
			}
			s.commitCut(cb.batch, cb.reason)
			s.bat.release()
		case e := <-frames:
			s.fp.commitGroup(s.fp.gather(e))
		case <-quit:
			// Submissions are refused from here on: flush what was admitted.
			for len(frames) > 0 {
				s.fp.commitGroup(s.fp.gather(<-frames))
			}
			frames, quit = nil, nil
		}
	}
}

// commit is the one commit step every write source ends in: a JSON cut, a
// binary group, a follower's tail record and a restore's WAL replay. recs
// are already durable (or, on replay, already in the log) and ups is the
// concatenation of their batches. In order it advances the exactly-once
// table, applies the shadow and the pool, records the engine apply latency,
// advances the stream position by one per record, publishes the changed
// answers to watchers, and updates the edge gauge and counters. It returns
// the new stream position.
//
// Routing follows the record shape: a run of single-update records goes
// through the per-update path (pool.ApplyUpdates), one multi-update record
// through the batch path (pool.ApplyBatch). Both advance the pool's
// position by one per record, so positions match the WAL index space.
func (s *Server) commit(recs []resilience.Record, ups []graph.Update) uint64 {
	for _, rec := range recs {
		s.dedup.advance(rec.SID, rec.Seq)
	}
	sh := s.shadow.Load()
	sh.Apply(ups)
	var (
		changed []core.ChangedAnswer
		err     error
	)
	tEng := time.Now()
	if len(recs) == len(ups) {
		_, changed, err = s.pool.ApplyUpdates(ups)
	} else {
		changed, err = s.pool.ApplyBatch(ups)
	}
	s.applyLat.record(len(ups), time.Since(tEng))
	if err != nil {
		s.h.degraded.Inc()
		s.setLastErr(err)
	}
	pos := s.applied.Add(uint64(len(recs)))
	s.publishWatch(pos, changed)
	s.edges.Store(int64(sh.NumEdges()))
	s.h.batches.Add(int64(len(recs)))
	s.h.updates.Add(int64(len(ups)))
	return pos
}

// checkpointOnSchedule writes a periodic checkpoint when the stream position
// moved from `from` to `to` across a CheckpointEvery boundary. Only writers
// call it, between commits, so the checkpoint reads a stable shadow.
func (s *Server) checkpointOnSchedule(from, to uint64) {
	if n := uint64(s.cfg.CheckpointEvery); n > 0 && to/n > from/n {
		if err := s.writeCheckpoint(); err != nil {
			s.setLastErr(err)
		}
	}
}

// commitCut commits one JSON cut as one WAL record and one stream position:
// sanitize the whole batch against the shadow under the configured policy,
// append it to the WAL, then run the commit step and the checkpoint
// schedule.
func (s *Server) commitCut(batch []graph.Update, reason CutReason) {
	s.h.cuts[reason].Inc()
	drop := func(n int) {
		s.h.dropBatches.Inc()
		s.h.dropUpdates.Add(int64(n))
	}
	// A node deposed while this batch sat in the queue must not commit it:
	// followers take writes only from the replication tail.
	if s.isFollower() {
		drop(len(batch))
		return
	}
	clean, _, err := s.san.Sanitize(s.shadow.Load(), batch)
	if err != nil {
		// Reject/strict policy refused the whole batch: nothing reaches the
		// engines; the rejection is visible via metrics and lastError.
		s.setLastErr(err)
		return
	}
	if len(clean) == 0 {
		return
	}
	// Degraded mode (DESIGN.md §12.2): a batch that cannot be made durable
	// is never applied. Applying it would desynchronize the served answers
	// from the durable prefix — after a crash, recovery would replay less
	// than was served. The batch is dropped (counted), the breaker opens,
	// and /v1/updates rejects with 503 until a background probe heals.
	if s.brk.Open() {
		drop(len(clean))
		return
	}
	if s.wal != nil {
		if _, werr := s.wal.Append(clean); werr != nil {
			s.brk.Trip(werr)
			s.setLastErr(fmt.Errorf("server: wal append failed (batch dropped, degraded): %w", werr))
			drop(len(clean))
			return
		}
	}
	pos := s.commit([]resilience.Record{{Batch: clean}}, clean)
	s.checkpointOnSchedule(pos-1, pos)
}
