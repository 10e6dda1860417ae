package campaign

import (
	"errors"
	"fmt"
	"os"
	"time"

	"ting/internal/telemetry"
	"ting/internal/wal"
)

// Journal record kinds. A coordinator journal is a write-ahead log: the
// campaign header (canonical names, shard geometry, lease TTL) followed by
// one grant record per lease issued and one complete record (carrying the
// winning submission's results) per finished shard. Grants and completes
// reach disk before the state change they describe is acknowledged, so a
// coordinator rebuilt from the journal can never contradict anything a
// worker was told.
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
	Shard    string       `json:"shard,omitempty"`
	Worker   string       `json:"worker,omitempty"`
	Epoch    uint64       `json:"epoch,omitempty"`
	Deadline int64        `json:"deadline,omitempty"` // grant: lease deadline, unix nanos
	Results  []PairResult `json:"results,omitempty"`
	// Grant (compacted snapshots only): re-grants folded away by
	// compaction, so Status.Reassigned survives a recovery.
	Regrants int `json:"regrants,omitempty"`
}

// check validates a replayed record. Unknown record kinds pass, for the
// replay to skip (forward compatibility); known kinds with impossible
// fields are errors.
func (rec *journalRecord) check() error {
	switch rec.Kind {
	case journalCampaign:
		if len(rec.Names) < 2 {
			return fmt.Errorf("campaign: journal header with %d relays", len(rec.Names))
		}
		if len(rec.Shards) == 0 {
			return errors.New("campaign: journal header without shards")
		}
		if rec.TTLMs <= 0 {
			return errors.New("campaign: journal header with non-positive TTL")
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
		for _, r := range rec.Results {
			if r.X == "" || r.Y == "" || r.X == r.Y {
				return fmt.Errorf("campaign: journal result pair (%q,%q)", r.X, r.Y)
			}
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

// replayJournal rebuilds a coordinator's ledger from the journal at path,
// torn-tail-tolerantly, and counts the records read. It enforces the
// journal's own invariants: exactly one header, first; grant epochs
// strictly increasing (coordinator-global monotonic fencing); no grant of a
// completed shard; completes only at the shard's latest granted epoch, each
// listing its shard's pairs in canonical order as Complete demands. A
// complete record's submission is written into the ledger, as Complete
// writes it.
func replayJournal(path string, treg *telemetry.Registry) (c *Coordinator, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: journal: %w", err)
	}
	defer f.Close()
	lastGrant := uint64(0)
	err = wal.Replay(f, func(rec journalRecord) error {
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
			// Another writer's kind: a newer one's, or the "lost" lines
			// journals carried until the complete record's Failed flags
			// made them redundant.
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
			// The check Complete made before journaling the record: a record
			// that misses a pair would recover a hole LostPairs never counts,
			// and one with another shard's pair would overwrite its cell.
			if err := st.shard.checkResults(c.names, rec.Results); err != nil {
				return fmt.Errorf("campaign: journal complete record: %w", err)
			}
			// A live coordinator journals one complete per shard; should a
			// file hold a second at the winning epoch, the first stands, as it
			// does against a retried submission.
			if st.phase != shardDone {
				st.phase = shardDone
				st.worker = rec.Worker
				st.failed = st.shard.record(c.ledger, rec.Results)
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
		return nil, 0, fmt.Errorf("campaign: journal %s has no campaign header", path)
	}
	return c, records, nil
}
