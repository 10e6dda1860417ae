package campaign

import (
	"bytes"
	"encoding/json"
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

// journalEncoder turns records into journal lines — the bytes json.Marshal
// gives — through one reused buffer, so a grant or a complete encodes
// without a fresh buffer or a boxed copy of its record. The coordinator
// holds one under its mutex.
type journalEncoder struct {
	// rec is the record enc encodes: a field, so Encode's argument is a
	// pointer into the encoder rather than a boxed copy of the record.
	rec   journalRecord
	buf   bytes.Buffer  // the records encoded by the last call, each ending in its newline
	enc   *json.Encoder // writes into buf; nil until the first record
	ends  []int         // the offset in buf just past each record's newline
	lines [][]byte      // buf cut into records, newlines excluded
}

// encode returns recs' journal lines, newlines excluded. They alias the
// encoder's buffer: valid until the next call.
func (e *journalEncoder) encode(recs ...journalRecord) ([][]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	e.ends = e.ends[:0]
	for i := range recs {
		e.rec = recs[i]
		err := e.enc.Encode(&e.rec)
		e.rec = journalRecord{} // hold no submission past its call
		if err != nil {
			return nil, fmt.Errorf("campaign: journal: %w", err)
		}
		e.ends = append(e.ends, e.buf.Len())
	}
	b, start := e.buf.Bytes(), 0
	e.lines = e.lines[:0]
	for _, end := range e.ends {
		e.lines = append(e.lines, b[start:end-1])
		start = end
	}
	return e.lines, nil
}

// append writes one record and forces it to disk before returning — the
// WAL contract: nothing is acknowledged to a worker that a recovered
// coordinator would not know.
func (e *journalEncoder) append(log *wal.Log, rec journalRecord) error {
	lines, err := e.encode(rec)
	if err != nil {
		return err
	}
	if err := log.Append(lines, 1); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// rewriteJournal atomically replaces the journal's content with recs (a
// compacting snapshot). Its encoder is its own: a snapshot's buffer is the
// whole journal, too big to keep between compactions.
func rewriteJournal(log *wal.Log, recs []journalRecord) error {
	var e journalEncoder
	lines, err := e.encode(recs...)
	if err != nil {
		return err
	}
	if err := log.Rewrite(lines); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// decodeJournalRecord parses and validates one journal line. Unknown
// record kinds decode to a record the replay skips (forward
// compatibility); known kinds with impossible fields are errors.
func decodeJournalRecord(raw []byte) (journalRecord, error) {
	var rec journalRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return journalRecord{}, err
	}
	switch rec.Kind {
	case journalCampaign:
		if len(rec.Names) < 2 {
			return journalRecord{}, fmt.Errorf("campaign: journal header with %d relays", len(rec.Names))
		}
		if len(rec.Shards) == 0 {
			return journalRecord{}, errors.New("campaign: journal header without shards")
		}
		if rec.TTLMs <= 0 {
			return journalRecord{}, errors.New("campaign: journal header with non-positive TTL")
		}
		for _, g := range rec.Shards {
			if err := (NewShard(g.TI, g.TJ, g.Lo, g.Hi)).Validate(); err != nil {
				return journalRecord{}, err
			}
		}
	case journalGrant:
		if rec.Shard == "" || rec.Epoch == 0 {
			return journalRecord{}, fmt.Errorf("campaign: journal grant %q epoch %d", rec.Shard, rec.Epoch)
		}
		if rec.Regrants < 0 {
			return journalRecord{}, fmt.Errorf("campaign: journal grant with %d regrants", rec.Regrants)
		}
	case journalComplete:
		if rec.Shard == "" || rec.Epoch == 0 {
			return journalRecord{}, fmt.Errorf("campaign: journal complete %q epoch %d", rec.Shard, rec.Epoch)
		}
		for _, r := range rec.Results {
			if r.X == "" || r.Y == "" || r.X == r.Y {
				return journalRecord{}, fmt.Errorf("campaign: journal result pair (%q,%q)", r.X, r.Y)
			}
		}
	}
	return rec, nil
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
// listing its shard's pairs in canonical order as Complete demands.
func replayJournal(path string, treg *telemetry.Registry) (c *Coordinator, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: journal: %w", err)
	}
	defer f.Close()
	lastGrant := uint64(0)
	err = wal.Replay(f, func(raw []byte) error {
		rec, err := decodeJournalRecord(raw)
		if err != nil {
			return &wal.DecodeError{Err: err}
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
			if st.phase != shardDone {
				st.phase = shardDone
				c.remaining--
			}
			st.worker, st.results = rec.Worker, rec.Results
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
