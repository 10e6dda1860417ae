package ting

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"ting/internal/wal"
)

// Checkpoint record kinds. A campaign log is a sequence of records: one
// (or more, idempotent) campaign headers naming the relay set, then one
// pair record per completed measurement and one half record per memoized
// half-circuit series. The log is append-only: a crashed or cancelled
// scan never has to undo anything, and Resume replays whatever prefix
// survived.
const (
	RecordCampaign = "campaign"
	RecordPair     = "pair"
	RecordHalf     = "half"
	RecordChurn    = "churn"
	// RecordShard marks a distributed-campaign worker taking up a shard
	// lease: the shard ID and the lease's fencing epoch, written before the
	// shard's first pair so a crashed worker's log shows what it was
	// holding. Readers that predate the record kind skip it (ReplayState
	// ignores unknown kinds), so shard-annotated logs stay replayable
	// everywhere.
	RecordShard = "shard"
)

// Churn record operations.
const (
	ChurnOpJoin   = "join"
	ChurnOpLeave  = "leave"
	ChurnOpRotate = "rotate"
)

// CheckpointRecord is one entry of a campaign log.
type CheckpointRecord struct {
	Kind string `json:"t"`
	// Campaign: the relay set of the scan.
	Names []string `json:"names,omitempty"`
	// Campaign/churn: the consensus epoch the scan observed when the
	// record was written, so Resume against a newer consensus knows how
	// stale the log is.
	Epoch uint64 `json:"epoch,omitempty"`
	// Campaign: onion-key fingerprints per relay, so a same-nickname
	// rejoin with a new key is detected as a rotation on resume.
	Fps map[string]string `json:"fps,omitempty"`
	// Pair: one completed measurement.
	X   string  `json:"x,omitempty"`
	Y   string  `json:"y,omitempty"`
	RTT float64 `json:"rtt,omitempty"`
	// Half: one memoized half-circuit series (min R_Cx), so a resumed
	// scan's HalfCache rehydrates instead of re-sampling (§3.3/§4.6).
	Path    []string `json:"path,omitempty"`
	Samples int      `json:"n,omitempty"`
	Min     float64  `json:"min,omitempty"`
	// Churn: one consensus delta the scan reconciled mid-campaign.
	Op    string `json:"op,omitempty"`
	Relay string `json:"relay,omitempty"`
	Fp    string `json:"fp,omitempty"`
	// Shard: one distributed-campaign lease this worker took up — the
	// shard's ID, the lease's fencing epoch, and the worker's name.
	Shard  string `json:"shard,omitempty"`
	Lease  uint64 `json:"lease,omitempty"`
	Worker string `json:"worker,omitempty"`
}

// Checkpoint is a durable campaign log. Implementations must be safe for
// concurrent use: scanner workers append as pairs are measured while another
// worker flushes. Append may hold a record back; Flush makes every record
// appended before it visible to a later Replay even if the process dies
// right after Flush returns — modulo the fsync batching window a
// file-backed implementation documents.
type Checkpoint interface {
	// Append records one entry, possibly only until the next Flush.
	Append(rec CheckpointRecord) error
	// Flush writes every entry appended so far to the log.
	Flush() error
	// Replay streams every surviving entry in append order.
	Replay(fn func(rec CheckpointRecord) error) error
}

// FileCheckpoint is the file-backed Checkpoint: CheckpointRecords in a
// wal.Log, which owns the record codec and the file discipline — batched
// fsync, torn-tail repair on open and tolerance on replay. Append encodes a
// record onto the log's pending run and writes nothing; Flush hands the run
// to the file in one write(2), and each record counts toward SyncEvery as
// if it had been written alone. The format is self-describing JSONL,
// greppable mid-campaign.
type FileCheckpoint struct {
	// SyncEvery is the fsync batch size in records; default 8. 1 fsyncs on
	// every Flush — maximum durability, one disk flush per run of measured
	// pairs.
	SyncEvery int

	path string
	log  *wal.Log[CheckpointRecord]
}

// OpenFileCheckpoint opens (creating if needed) a campaign log for
// appending. The existing content stays replayable, less a crash's torn
// final line — opening an interrupted campaign's log and handing it to
// Scanner.Resume is the recovery path.
func OpenFileCheckpoint(path string) (*FileCheckpoint, error) {
	log, err := wal.Open[CheckpointRecord](path)
	if err != nil {
		return nil, fmt.Errorf("ting: checkpoint: %w", err)
	}
	return &FileCheckpoint{path: path, log: log}, nil
}

// Append encodes one record as a JSON line onto the log's pending run.
// Nothing reaches the file until the next Flush.
func (c *FileCheckpoint) Append(rec CheckpointRecord) error {
	return checkpointErr(c.log.Append(rec))
}

// Flush writes every pending record in one write(2), and fsyncs once
// SyncEvery records are unsynced. A failed Flush drops the records it held;
// the log is short of them, so a caller must stop counting on it.
func (c *FileCheckpoint) Flush() error { return checkpointErr(c.log.Flush(c.SyncEvery)) }

// Close flushes what is pending, then syncs and closes the log. Appending
// afterwards errors.
func (c *FileCheckpoint) Close() error { return checkpointErr(c.log.Close()) }

func checkpointErr(err error) error {
	if err != nil {
		return fmt.Errorf("ting: checkpoint: %w", err)
	}
	return nil
}

// Replay reads the log from the start; a log never written replays empty.
func (c *FileCheckpoint) Replay(fn func(rec CheckpointRecord) error) error {
	f, err := os.Open(c.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ting: checkpoint: %w", err)
	}
	defer f.Close()
	return wal.Replay(f, fn)
}

// HalfSeries is one replayed half-circuit series.
type HalfSeries struct {
	Path    []string
	Samples int
	Min     float64
}

// CheckpointState is the aggregated view of a campaign log: the matrix
// Resume continues and the half-circuit series it seeds its cache with.
type CheckpointState struct {
	// Names is the campaign's relay set, from the header record.
	Names []string
	// Matrix is the log replayed: the header's relays, then each relay the
	// log saw join, in join order, with every completed pair a ProvResumed
	// cell. Later records win, so a pair re-measured across resumes keeps
	// the newest value. Nil when the log has no header.
	Matrix *Matrix
	// Halves are the memoized half-circuit minima, deduplicated by series.
	Halves []HalfSeries
	// Records is how many log entries were replayed.
	Records int
	// Fps are the onion-key fingerprints the log last associated with each
	// relay (campaign header merged with churn records in order).
	Fps map[string]string
}

// ReplayState replays a campaign log into its aggregated state. The first
// header creates the matrix, a join adds its relay and a pair record writes
// its cell. A pair record waits until the matrix holds both its relays —
// a scan logs a relay's join before its pairs, but logs written before it
// did can hold a joining relay's pairs ahead of the join — and a pair of a
// relay the log never introduces seeds nothing. Shard and leave
// records are validated but aggregate nothing: a crashed worker's log still
// shows what it was holding, to whoever reads the log. Records of unknown
// kinds are skipped (forward compatibility); malformed records of known
// kinds are errors.
func ReplayState(cp Checkpoint) (*CheckpointState, error) {
	st := &CheckpointState{Fps: make(map[string]string)}
	halfAt := make(map[string]int)
	var m *Matrix                  // nil until the header
	var early []string             // relays joined before the header
	var pending []CheckpointRecord // pair records waiting for a relay
	// A join's relay is never empty and is added only when the matrix does
	// not hold it, so AddName, which refuses nothing else, cannot fail.
	// seed writes a pair record's cell and reports whether the matrix holds
	// both its relays.
	seed := func(rec CheckpointRecord) bool {
		if m == nil {
			return false
		}
		i, iok := m.Index(rec.X)
		j, jok := m.Index(rec.Y)
		if iok && jok {
			m.write(i, j, rec.RTT, ProvResumed, 255)
		}
		return iok && jok
	}
	// place seeds the pending pairs a new relay completes, in log order.
	place := func() {
		kept := pending[:0]
		for _, rec := range pending {
			if !seed(rec) {
				kept = append(kept, rec)
			}
		}
		pending = kept
	}
	err := cp.Replay(func(rec CheckpointRecord) error {
		st.Records++
		switch rec.Kind {
		case RecordCampaign:
			if len(rec.Names) < 2 {
				return fmt.Errorf("ting: checkpoint: campaign header with %d relays", len(rec.Names))
			}
			if m == nil {
				var err error
				if m, err = NewMatrix(rec.Names); err != nil {
					return fmt.Errorf("ting: checkpoint: %w", err)
				}
				for _, n := range early {
					if _, ok := m.Index(n); !ok {
						_ = m.AddName(n)
					}
				}
				place()
			} else if !slices.Equal(st.Names, rec.Names) {
				return errors.New("ting: checkpoint: log spans campaigns with different relay sets")
			}
			st.Names = rec.Names
			for name, fp := range rec.Fps {
				st.Fps[name] = fp
			}
		case RecordPair:
			if rec.X == "" || rec.Y == "" || rec.X == rec.Y {
				return fmt.Errorf("ting: checkpoint: invalid pair record (%q,%q)", rec.X, rec.Y)
			}
			if !finite(rec.RTT) {
				return fmt.Errorf("ting: checkpoint: non-finite RTT for pair (%s,%s)", rec.X, rec.Y)
			}
			if !seed(rec) {
				pending = append(pending, rec)
			}
		case RecordHalf:
			if len(rec.Path) < 2 || rec.Samples <= 0 {
				return errors.New("ting: checkpoint: invalid half-circuit record")
			}
			if !finite(rec.Min) {
				return errors.New("ting: checkpoint: non-finite half-circuit minimum")
			}
			key := halfKey(rec.Path, rec.Samples)
			if i, ok := halfAt[key]; ok {
				st.Halves[i].Min = rec.Min
			} else {
				halfAt[key] = len(st.Halves)
				st.Halves = append(st.Halves, HalfSeries{Path: rec.Path, Samples: rec.Samples, Min: rec.Min})
			}
		case RecordShard:
			if rec.Shard == "" {
				return errors.New("ting: checkpoint: shard record without shard ID")
			}
		case RecordChurn:
			if rec.Relay == "" {
				return errors.New("ting: checkpoint: churn record without relay")
			}
			switch rec.Op {
			case ChurnOpLeave:
				// Resume reads departures off the live consensus.
			case ChurnOpJoin:
				if m == nil {
					early = append(early, rec.Relay)
				} else if _, ok := m.Index(rec.Relay); !ok {
					_ = m.AddName(rec.Relay)
					place()
				}
				if rec.Fp != "" {
					st.Fps[rec.Relay] = rec.Fp
				}
			case ChurnOpRotate:
				if rec.Fp != "" {
					st.Fps[rec.Relay] = rec.Fp
				}
			default:
				return fmt.Errorf("ting: checkpoint: unknown churn op %q", rec.Op)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.Matrix = m
	return st, nil
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
