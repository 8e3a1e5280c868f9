package fleet

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/service"
)

// SpecKey fingerprints a job spec for routing: identical specs (same design
// source, model, placer knobs) hash to the same key, so a resubmitted design
// ranks the same workers — and hits the checkpoint-affinity map — no matter
// which client sends it. The resume block is excluded: a re-routed copy of a
// job (which carries a resume pointer) must keep the original's key. The
// parent reference is excluded too — it is rewritten to a worker-local job ID
// during routing, and an ECO child adopts its parent's key outright so it
// lands on the node holding the parent's cached placement. The deprecated
// placer worker count is excluded because the placer ignores it, so a spec
// resubmitted with another value still finds its cached placement and
// checkpoints.
func SpecKey(spec service.JobSpec) uint64 {
	spec.Resume = nil
	spec.Parent = ""
	spec.Placer.Workers = 0
	data, err := json.Marshal(spec)
	if err != nil {
		return 0 // unreachable for a decoded spec; 0 just degrades ranking
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// rendezvousScore mixes a job key with a worker identity. Highest score
// wins (highest-random-weight hashing): every job has its own independent
// preference order over workers, so load spreads evenly, and removing a
// worker only remaps the jobs that preferred it.
func rendezvousScore(key uint64, workerID string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	h.Write(buf[:])
	h.Write([]byte(workerID))
	return h.Sum64()
}

// Rank orders workers for a job key by descending rendezvous score (ties
// broken by ID for determinism). The coordinator tries candidates in this
// order until one accepts the job.
func Rank(key uint64, workers []Heartbeat) []Heartbeat {
	out := append([]Heartbeat(nil), workers...)
	sort.Slice(out, func(a, b int) bool {
		sa, sb := rendezvousScore(key, out[a].ID), rendezvousScore(key, out[b].ID)
		if sa != sb {
			return sa > sb
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Affinity remembers which worker most recently held a spec key's
// checkpoints, overriding rendezvous ranking for resubmitted designs: the
// node that already has the snapshot warm-starts instead of replaying the
// whole Nesterov loop. Bounded FIFO so a long-lived coordinator cannot grow
// without limit.
type Affinity struct {
	cap int

	mu    sync.Mutex
	m     map[uint64]string
	order []uint64
}

// NewAffinity creates an affinity map retaining at most cap entries
// (default 4096 when cap <= 0).
func NewAffinity(cap int) *Affinity {
	if cap <= 0 {
		cap = 4096
	}
	return &Affinity{cap: cap, m: make(map[uint64]string)}
}

// Set records that worker holds the freshest checkpoints for key.
func (a *Affinity) Set(key uint64, workerID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.m[key]; !ok {
		a.order = append(a.order, key)
		if len(a.order) > a.cap {
			delete(a.m, a.order[0])
			a.order = a.order[1:]
		}
	}
	a.m[key] = workerID
}

// Get returns the affine worker for key, if any.
func (a *Affinity) Get(key uint64) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.m[key]
	return id, ok
}

// Drop removes key's affinity (used when the affine worker died, so stale
// entries do not keep steering submissions at a ghost).
func (a *Affinity) Drop(key uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.m, key)
}
