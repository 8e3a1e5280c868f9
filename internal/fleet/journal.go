package fleet

import (
	"encoding/json"
	"errors"
	"os"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/service"
)

// The coordinator's job journal is an append-only record of every job-state
// transition that matters for crash recovery, framed as an internal/durable
// record stream: a magic+version header, then length-prefixed records each
// guarded by a CRC-32C of the payload. Replay stops at the first bad frame —
// a torn tail from a crash mid-append loses at most the record being
// written, never the prefix — and the file is truncated back to the last
// good frame before appending resumes.
const (
	journalMagic   = "MEGPJRNL"
	journalVersion = 1
	// journalMaxRecord bounds one frame so a corrupt length prefix cannot
	// drive a huge allocation during replay.
	journalMaxRecord = 4 << 20
)

// Journal file-format errors. A torn tail is NOT an error (it is the
// expected crash artifact); these fire only when the file is not a journal
// at all.
var (
	ErrJournalMagic   = durable.ErrBadMagic
	ErrJournalVersion = durable.ErrVersion
)

// errJournalBroken marks a journal whose handle was lost (the reopen after a
// compaction rename failed): appends must fail loudly rather than fsync into
// the unlinked pre-compaction inode.
var errJournalBroken = errors.New("fleet: journal broken (reopen after compaction failed)")

// Journal record kinds, in the order a job's life emits them.
const (
	recAccepted = "accepted" // job admitted: spec, tenant, idempotency key
	recAssigned = "assigned" // job placed on a worker (also after a steal)
	recRerouted = "rerouted" // assignment cleared (a reroute, or a steal); optional resume pointer
	recTerminal = "terminal" // job reached done/failed/cancelled
	recMeta     = "meta"     // compaction header: sequence floor
)

// journalRecord is one framed JSON payload. A single struct covers every
// kind; unused fields are omitted on the wire.
type journalRecord struct {
	Kind      string           `json:"kind"`
	Job       string           `json:"job,omitempty"`
	Tenant    string           `json:"tenant,omitempty"`
	Class     string           `json:"class,omitempty"`
	IdemKey   string           `json:"idem,omitempty"`
	Key       uint64           `json:"key,omitempty"`
	Spec      *service.JobSpec `json:"spec,omitempty"`
	Submitted time.Time        `json:"submitted"`
	Worker    string           `json:"worker,omitempty"`
	WorkerURL string           `json:"worker_url,omitempty"`
	RemoteID  string           `json:"remote_id,omitempty"`
	DataDir   string           `json:"data_dir,omitempty"`
	ResumeDir string           `json:"resume_dir,omitempty"`
	State     string           `json:"state,omitempty"`
	Seq       int64            `json:"seq,omitempty"`
	// Steal marks a rerouted record that took the job off a hot worker's
	// queue: it counts as a steal, not a reroute. Journals written before
	// the mark existed read every such record as a reroute.
	Steal bool `json:"steal,omitempty"`
}

// Journal is the append-only, CRC-checked transition log backing coordinator
// crash recovery. Safe for concurrent use; every append is fsynced so an
// acknowledged submit survives kill -9.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	appended int // records appended since open/compact (compaction trigger)
}

// openJournal opens (creating if needed) the journal at path, replays every
// intact record, truncates away any torn tail, and leaves the file ready for
// appends. The returned records are in append order.
func openJournal(path string) (*Journal, []journalRecord, error) {
	recs, validLen, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	// Delete the temp files of compactions a crash cut short: durable's,
	// and the fixed "<journal>.tmp" of earlier builds.
	durable.RemoveTemps(path)
	os.Remove(path + ".tmp") //nolint:errcheck // best-effort cleanup
	if validLen == 0 {
		// Fresh (or empty) file: stamp the header.
		err = durable.WriteFile(path, durable.Header(journalMagic, journalVersion), true)
	} else {
		// Drop the torn tail (no-op when the file ended cleanly).
		err = os.Truncate(path, validLen)
	}
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{path: path, f: f}, recs, nil
}

// readJournal scans the file, returning every intact record and the byte
// offset of the end of the last good frame. A missing file yields (nil, 0).
func readJournal(path string) ([]journalRecord, int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var recs []journalRecord
	valid, err := durable.ReadStream(f, journalMagic, journalVersion, journalMaxRecord, func(payload []byte) bool {
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	return recs, valid, err
}

// Append frames, writes, and fsyncs one record.
func (j *Journal) Append(rec journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf := durable.AppendRecord(make([]byte, 0, 8+len(payload)), payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalBroken
	}
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.appended++
	return nil
}

// AppendedSinceCompact reports how many records landed since the journal was
// opened or last compacted — the coordinator's compaction trigger.
func (j *Journal) AppendedSinceCompact() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Compact atomically replaces the journal with a snapshot of the given
// records (an fsynced durable.WriteFile), then reopens for appends. The
// snapshot is the coordinator's live job table re-serialized, so replay cost
// stays proportional to retained jobs instead of total history.
func (j *Journal) Compact(recs []journalRecord) error {
	buf := durable.Header(journalMagic, journalVersion)
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = durable.AppendRecord(buf, payload)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := durable.WriteFile(j.path, buf, true); err != nil {
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The rename already installed the snapshot, but without a handle on
		// it the only open descriptor points at the unlinked pre-compaction
		// inode: a write through it would fsync into a deleted file and every
		// later "durable" transition would be a lie. Mark the journal broken
		// so Append fails loudly and the coordinator's refuse-on-append-
		// failure path engages instead of acking non-durable writes.
		old.Close()
		j.f = nil
		return err
	}
	old.Close()
	j.f = nf
	j.appended = 0
	return nil
}

// Close releases the file handle. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}
