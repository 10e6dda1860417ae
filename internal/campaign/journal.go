package campaign

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ting/internal/telemetry"
	"ting/internal/wal"
)

// Journal record kinds. A coordinator journal is a write-ahead log: the
// campaign header (canonical names, shard geometry, lease TTL) followed by
// one grant record per lease issued and one complete record per finished
// shard. A complete record carries the winning submission by index: the
// shard's RTTs in its canonical cursor order and the positions of its
// failed pairs, so no relay name is spelled per pair. A complete record in
// the named form (a results list of named pairs) is refused, never read.
// Grants and completes reach disk before the state change they describe is
// acknowledged, so a coordinator rebuilt from the journal can never
// contradict anything a worker was told.
const (
	journalCampaign = "campaign"
	journalGrant    = "grant"
	journalComplete = "complete"
)

// journalShard is a shard's pure geometry as journaled; the ID is
// rederived on replay, so a journal cannot smuggle in a mismatched name.
type journalShard struct {
	TI int `json:"ti"`
	TJ int `json:"tj"`
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// journalRecord is one line of the coordinator journal. encoding/json
// round-trips float64 exactly, so replayed submissions merge bytewise
// identically to the live ones.
type journalRecord struct {
	Kind string `json:"t"`
	// Campaign header.
	Names  []string       `json:"names,omitempty"`
	Shards []journalShard `json:"shards,omitempty"`
	TTLMs  int64          `json:"ttl_ms,omitempty"`
	// Campaign header (compacted): the fencing-epoch watermark at snapshot
	// time, covering grants whose records the compaction dropped.
	Watermark uint64 `json:"watermark,omitempty"`
	// Grant/complete.
	Shard    string `json:"shard,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	Deadline int64  `json:"deadline,omitempty"` // grant: lease deadline, unix nanos
	// Complete: one value per shard pair in canonical order (0 at a failed
	// pair) and the strictly increasing positions of the failed pairs.
	RTTs   []float64 `json:"rtts,omitempty"`
	Failed []int     `json:"failed,omitempty"`
	// Complete, the named form's results list, each entry decoded to
	// nothing: only its presence is read, so that check refuses the record.
	Named []struct{} `json:"results,omitempty"`
	// Grant (compacted snapshots only): re-grants folded away by
	// compaction, so Status.Reassigned survives a recovery.
	Regrants int `json:"regrants,omitempty"`
}

// Reset readies rec for wal.Replay's next line: a zero record, but for
// RTTs and Failed, which keep their backing arrays so a recovery does not
// regrow them for every complete record. Every other slice starts nil: the
// header's Names, which NewCoordinator keeps, are never written over.
func (rec *journalRecord) Reset() {
	*rec = journalRecord{RTTs: wal.Emptied(rec.RTTs), Failed: wal.Emptied(rec.Failed)}
}

// Settle makes rec, a copy of the reused record, what a fresh decode of
// its line gives: RTTs and Failed are nil unless the line held them.
func (rec *journalRecord) Settle() {
	rec.RTTs, rec.Failed = wal.Unfilled(rec.RTTs), wal.Unfilled(rec.Failed)
}

// check validates a replayed record on its own fields; what a complete
// record's values must fit is its shard's to say, at replay. Unknown record
// kinds pass, for the replay to skip; known kinds with impossible fields
// are errors.
func (rec *journalRecord) check() error {
	switch rec.Kind {
	case journalCampaign:
		if len(rec.Names) < 2 {
			return fmt.Errorf("campaign: journal header with %d relays", len(rec.Names))
		}
		if len(rec.Shards) == 0 {
			return errors.New("campaign: journal header without shards")
		}
		if rec.TTLMs <= 0 || rec.TTLMs > maxTTLMs {
			return fmt.Errorf("campaign: journal header with TTL %d ms, want 1 to %d", rec.TTLMs, maxTTLMs)
		}
		for _, g := range rec.Shards {
			if err := (NewShard(g.TI, g.TJ, g.Lo, g.Hi)).Validate(); err != nil {
				return err
			}
		}
	case journalGrant:
		if rec.Shard == "" || rec.Epoch == 0 {
			return fmt.Errorf("campaign: journal grant %q epoch %d", rec.Shard, rec.Epoch)
		}
		if rec.Regrants < 0 {
			return fmt.Errorf("campaign: journal grant with %d regrants", rec.Regrants)
		}
	case journalComplete:
		if rec.Shard == "" || rec.Epoch == 0 {
			return fmt.Errorf("campaign: journal complete %q epoch %d", rec.Shard, rec.Epoch)
		}
		if rec.Named != nil {
			return fmt.Errorf("campaign: journal complete %s lists named results: the named form is refused; a record holds rtts and failed positions",
				rec.Shard)
		}
	}
	return nil
}

func journalHeader(names []string, shards []Shard, ttl time.Duration, watermark uint64) journalRecord {
	geo := make([]journalShard, len(shards))
	for i, sh := range shards {
		geo[i] = journalShard{TI: sh.TI, TJ: sh.TJ, Lo: sh.Lo, Hi: sh.Hi}
	}
	return journalRecord{
		Kind:      journalCampaign,
		Names:     names,
		Shards:    geo,
		TTLMs:     ttl.Milliseconds(),
		Watermark: watermark,
	}
}

// replayJournal rebuilds a coordinator's ledger from a journal,
// torn-tail-tolerantly, and counts the records read. It enforces the
// journal's own invariants: exactly one header, first; grant epochs
// strictly increasing (coordinator-global monotonic fencing); no grant of a
// completed shard; completes only at the shard's latest granted epoch, each
// holding one value per shard pair and increasing failed positions within
// the shard. A complete record's values are written into the ledger as the
// shard's cursor walks, as Complete writes them, and are not kept: the
// record's RTTs and Failed are the next line's too. A complete record in
// the named form is refused (journalRecord.check).
func replayJournal(r io.Reader, treg *telemetry.Registry) (c *Coordinator, records int, err error) {
	lastGrant := uint64(0)
	err = wal.Replay(r, func(rec journalRecord) error {
		if err := rec.check(); err != nil {
			return err
		}
		records++
		switch rec.Kind {
		case journalCampaign:
			if c != nil {
				return errors.New("campaign: journal has a second campaign header")
			}
			shards := make([]Shard, len(rec.Shards))
			for i, g := range rec.Shards {
				shards[i] = NewShard(g.TI, g.TJ, g.Lo, g.Hi)
			}
			c, err = NewCoordinator(rec.Names, shards, time.Duration(rec.TTLMs)*time.Millisecond, treg)
			if err != nil {
				return err
			}
			c.nextEpoch = rec.Watermark
			return nil
		case journalGrant, journalComplete:
			// Applied to their shard, below.
		default:
			// Another writer's kind: a newer one's, or a retired one's.
			return nil
		}
		if c == nil {
			return fmt.Errorf("campaign: journal %s before campaign header", rec.Kind)
		}
		st, ok := c.byID[rec.Shard]
		if !ok {
			return fmt.Errorf("campaign: journal %s for unknown shard %s", rec.Kind, rec.Shard)
		}
		if rec.Kind == journalComplete {
			if rec.Epoch != st.epoch {
				return fmt.Errorf("campaign: journal complete for shard %s at epoch %d, latest grant %d",
					rec.Shard, rec.Epoch, st.epoch)
			}
			// The check the coordinator made before journaling the record: one
			// that misses a pair would recover a hole LostPairs never counts.
			if err := st.shard.checkValues(rec.RTTs, rec.Failed); err != nil {
				return fmt.Errorf("campaign: journal complete record: %w", err)
			}
			// A live coordinator journals one complete per shard; should a
			// file hold a second at the winning epoch, the first stands, as it
			// does against a retried submission.
			if st.phase != shardDone {
				st.phase = shardDone
				st.worker = rec.Worker
				st.failed = st.shard.record(c.ledger, rec.RTTs, rec.Failed)
				c.remaining--
			}
			return nil
		}
		// Grant records are strictly increasing by epoch within one journal
		// file — the coordinator-global monotonic fencing counter made
		// visible. (A compacted snapshot's header watermark may sit above its
		// re-emitted grants; appends after recovery resume strictly above
		// both.)
		if rec.Epoch <= lastGrant {
			return fmt.Errorf("campaign: journal grant epoch %d not above previous grant %d (fencing violated)",
				rec.Epoch, lastGrant)
		}
		if st.phase == shardDone {
			return fmt.Errorf("campaign: journal grants completed shard %s", rec.Shard)
		}
		lastGrant = rec.Epoch
		c.nextEpoch = max(c.nextEpoch, rec.Epoch)
		if st.epoch != 0 {
			st.reassigned++ // a re-grant observed directly in this file
		}
		st.reassigned += rec.Regrants // re-grants folded into a snapshot
		st.phase = shardLeased
		st.worker, st.epoch, st.deadline = rec.Worker, rec.Epoch, time.Unix(0, rec.Deadline)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if c == nil {
		return nil, 0, errors.New("campaign: journal has no campaign header")
	}
	return c, records, nil
}
