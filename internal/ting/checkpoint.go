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
// half-circuit series. A pair record names its relays by matrix index, in
// the index space the log itself builds: the header's names, then each
// relay a join record introduces, in log order. The log is append-only: a
// crashed or cancelled scan never has to undo anything, and Resume replays
// whatever prefix survived.
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
	// Pair: one completed measurement of relays I < J in the log's index
	// space. Zero fields are omitted, so pair (0, j) carries no "i".
	// X and Y are the named form's relays, which ReplayState refuses; only
	// the benchmark's append timing (bench/layers.go) still sets them.
	X   string  `json:"x,omitempty"`
	Y   string  `json:"y,omitempty"`
	I   int     `json:"i,omitempty"`
	J   int     `json:"j,omitempty"`
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
// its cell. A pair record must name, by index, two relays the log has
// introduced before it; one that names its relays (the named form) is
// refused, and so is a join before the first header: no writer logs
// either. Shard and leave records are validated but aggregate nothing: a
// crashed worker's log still shows what it was holding, to whoever reads
// the log. Records of unknown kinds are skipped; malformed records of known
// kinds are errors.
func ReplayState(cp Checkpoint) (*CheckpointState, error) {
	st := &CheckpointState{Fps: make(map[string]string)}
	halfAt := make(map[string]int)
	var m *Matrix // nil until the header
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
			} else if !slices.Equal(st.Names, rec.Names) {
				return errors.New("ting: checkpoint: log spans campaigns with different relay sets")
			}
			st.Names = rec.Names
			for name, fp := range rec.Fps {
				st.Fps[name] = fp
			}
		case RecordPair:
			if rec.X != "" || rec.Y != "" {
				return fmt.Errorf("ting: checkpoint: pair record (%q,%q) is in the named form; pair records name their relays by index", rec.X, rec.Y)
			}
			if !finite(rec.RTT) {
				return fmt.Errorf("ting: checkpoint: non-finite RTT for pair (%d,%d)", rec.I, rec.J)
			}
			introduced := 0
			if m != nil {
				introduced = m.N()
			}
			if rec.I == rec.J || min(rec.I, rec.J) < 0 || max(rec.I, rec.J) >= introduced {
				return fmt.Errorf("ting: checkpoint: pair record (%d,%d) is not a pair of the %d relays introduced so far",
					rec.I, rec.J, introduced)
			}
			m.write(rec.I, rec.J, rec.RTT, ProvResumed, 255)
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
					return fmt.Errorf("ting: checkpoint: join of %s before the campaign header", rec.Relay)
				}
				// A join's relay is never empty and is added only when the
				// matrix does not hold it, so AddName, which refuses nothing
				// else, cannot fail.
				if _, ok := m.Index(rec.Relay); !ok {
					_ = m.AddName(rec.Relay)
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
