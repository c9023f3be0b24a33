package digest

import "fmt"

// Digestable is implemented by every simulator component that can fold
// its externally observable state into a rolling hash. Implementations
// must only READ state (a digest pass over an instrumented run must leave
// it bit-identical to a bare one — no lazy refills, no sketch flushes),
// must not allocate (snapshots run between events on the steady-state
// path and are pinned by AllocsPerRun), and must write fields in a fixed
// order with fixed widths (no maps, no floats-as-text).
type Digestable interface {
	DigestState(h *Hash)
}

// Config parameterizes a Recorder. Zero values select the defaults.
type Config struct {
	// Seed primes every digest; timelines with different seeds are not
	// comparable and the diff engine refuses them. Default 1.
	Seed uint64
	// EpochNs is the snapshot period in sim nanoseconds (default 1ms).
	// Two comparable runs must use the same period so their epochs align.
	EpochNs int64
	// RecordCap preallocates the record store (default 1<<15 records):
	// the digest column gets RecordCap slots up front, and the first
	// snapshot sizes the header column for RecordCap records at its
	// scope's width. The store grows past it, but a capacity-guarded run
	// allocates nothing after its first snapshot — size it to epochs ×
	// components for pinned paths.
	RecordCap int
	// Fine enables per-event digests bracketed around FineAtEpoch: every
	// event executed in the windows leading into epochs FineAtEpoch and
	// FineAtEpoch+1 appends one chained whole-scope digest. tcndiff's
	// drill-in rerun sets this to the first divergent epoch it reported.
	Fine bool
	// FineAtEpoch is the epoch index the fine bracket centers on.
	FineAtEpoch int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EpochNs <= 0 {
		c.EpochNs = 1_000_000 // 1ms of sim time
	}
	if c.RecordCap <= 0 {
		c.RecordCap = 1 << 15
	}
	return c
}

// Record is one epoch snapshot of one component: the chained digest of
// that component's state at that instant. Chained means each epoch's
// digest folds in the previous one, so a component that diverges at epoch
// E stays divergent at every later epoch — the monotonicity the diff
// engine's binary search relies on.
type Record struct {
	Scope     string
	Epoch     int64
	At        int64 // sim ns
	Component Component
	Label     string
	Digest    uint64
}

// FineRecord is one per-event snapshot in fine mode: the chained digest
// of an entire scope after one event executed. Event is the engine's
// cumulative executed-event count, the index tcndiff reports.
type FineRecord struct {
	Scope  string
	Event  uint64
	At     int64 // sim ns
	Digest uint64
}

// Recorder accumulates the digest timeline of one tcnsim invocation. It
// may span several experiment cells (each with its own engine): every
// engine gets its own Scope, so a snapshot digests only that cell's
// components and the timeline stays O(cells × epochs × components), not
// O(cells² × ...). The recorder is shared mutable state like the flight
// recorder — attaching it forces a sweep serial (experiments.Obs.Active).
//
// The epoch records are stored as two pointer-free columns the GC never
// scans: one 16-byte snap header per Snapshot call and one chained digest
// per component, in snapshot order. A record costs the 8 bytes of its
// digest plus its share of one header; the scope, label, component and
// epoch a Record carries are rebuilt from the columns on demand.
type Recorder struct {
	cfg     Config
	scopes  []*Scope
	byOwner map[any]*Scope
	snaps   []snap
	digests []uint64
	fine    []fineRec
}

// snap is the column header of one Scope.Snapshot call: the sim time it
// recorded and the scope's index in Recorder.scopes. The rest of a
// record's identity follows from column order: a scope's n-th header is
// its epoch n, and each header owns the next len(comps) digests, in the
// scope's registration order.
type snap struct {
	at    int64
	scope uint32
}

// fineRec is a FineRecord with its scope held as an index into
// Recorder.scopes.
type fineRec struct {
	scope  uint32
	event  uint64
	at     int64
	digest uint64
}

// New returns an empty recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:     cfg,
		byOwner: map[any]*Scope{},
		digests: make([]uint64, 0, cfg.RecordCap),
	}
}

// Seed returns the digest seed.
func (r *Recorder) Seed() uint64 { return r.cfg.Seed }

// EpochNs returns the snapshot period in sim nanoseconds. The caller (not
// this package) schedules the epoch ticks, so the recorder never touches
// an engine.
func (r *Recorder) EpochNs() int64 { return r.cfg.EpochNs }

// FineEnabled reports whether per-event fine records are requested; the
// caller only installs the (one nil check per event) engine hook then.
func (r *Recorder) FineEnabled() bool { return r.cfg.Fine }

// ScopeFor returns the scope registered for owner, creating it on first
// use. Owners are opaque keys — one per engine — compared by identity;
// scopes are labeled "cell0", "cell1", ... in creation order, which is
// deterministic because cells attach serially whenever a recorder is on.
func (r *Recorder) ScopeFor(owner any) *Scope {
	if s, ok := r.byOwner[owner]; ok {
		return s
	}
	s := &Scope{
		rec:    r,
		index:  uint32(len(r.scopes)),
		label:  fmt.Sprintf("cell%d", len(r.scopes)),
		fineOn: r.cfg.Fine && r.cfg.FineAtEpoch == 0,
	}
	r.byOwner[owner] = s
	r.scopes = append(r.scopes, s)
	return s
}

// ScopeOf returns the scope registered for owner, or nil.
func (r *Recorder) ScopeOf(owner any) *Scope { return r.byOwner[owner] }

// Len returns the number of epoch records.
func (r *Recorder) Len() int { return len(r.digests) }

// eachRecord calls fn with every epoch record in snapshot order, stopping
// at the first error.
func (r *Recorder) eachRecord(fn func(Record) error) error {
	epochs := make([]int64, len(r.scopes))
	next := 0 // index of the current header's first digest
	for _, h := range r.snaps {
		s := r.scopes[h.scope]
		for i := range s.comps {
			c := &s.comps[i]
			if err := fn(Record{
				Scope: s.label, Epoch: epochs[h.scope], At: h.at,
				Component: c.kind, Label: c.label, Digest: r.digests[next+i],
			}); err != nil {
				return err
			}
		}
		next += len(s.comps)
		epochs[h.scope]++
	}
	return nil
}

// Records builds the epoch records in snapshot order. It allocates a
// fresh slice on every call; use Len to count them.
func (r *Recorder) Records() []Record {
	out := make([]Record, 0, len(r.digests))
	_ = r.eachRecord(func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	return out
}

// FineRecords builds the fine records in append order.
func (r *Recorder) FineRecords() []FineRecord {
	out := make([]FineRecord, len(r.fine))
	for i, f := range r.fine {
		out[i] = FineRecord{Scope: r.scopes[f.scope].label, Event: f.event, At: f.at, Digest: f.digest}
	}
	return out
}

// Timeline packages the recorder's current state for the diff engine,
// building its records from the columns.
func (r *Recorder) Timeline() *Timeline {
	return &Timeline{Seed: r.cfg.Seed, EpochNs: r.cfg.EpochNs, Records: r.Records(), Fine: r.FineRecords()}
}

// registration pairs a component with its identity.
type registration struct {
	kind  Component
	label string
	d     Digestable
}

// Scope is the per-engine slice of a recorder: the components of one
// experiment cell, their digest chains, and the cell's fine chain. All
// methods run on the goroutine that owns the cell's engine.
type Scope struct {
	rec    *Recorder
	index  uint32 // position in rec.scopes
	label  string
	comps  []registration
	chain  []uint64
	epoch  int64
	fineOn bool

	// fineChain is the chained whole-scope digest fine mode extends per
	// event; h is the reusable hash scratch (a local would escape through
	// the interface call and allocate).
	fineChain uint64
	h         Hash
}

// Label returns the scope's cell label.
func (s *Scope) Label() string { return s.label }

// Epoch returns the number of snapshots taken so far (the index the next
// snapshot will record).
func (s *Scope) Epoch() int64 { return s.epoch }

// Register adds a component to the scope. Registration order is the
// digest order, so it must be deterministic (it is: cells build their
// fabric in program order). Register before the first Snapshot.
func (s *Scope) Register(kind Component, label string, d Digestable) {
	if d == nil {
		panic(fmt.Sprintf("digest: nil Digestable registered as %s %q", kind, label))
	}
	if s.epoch > 0 {
		panic(fmt.Sprintf("digest: %s %q registered after snapshot %d; chains would not align across runs",
			kind, label, s.epoch))
	}
	s.comps = append(s.comps, registration{kind: kind, label: label, d: d})
	s.chain = append(s.chain, 0)
}

// Snapshot records one epoch: every component's state is hashed, chained
// onto its previous digest, and appended to the recorder. at is the sim
// time in nanoseconds. Allocation-free while the record store stays
// within its preallocated capacity; the recorder's first snapshot sizes
// the header column (see Config.RecordCap).
func (s *Scope) Snapshot(at int64) {
	r := s.rec
	if r.snaps == nil {
		//tcnlint:hotpath runs once per recorder, on its first snapshot
		r.snaps = make([]snap, 0, r.cfg.RecordCap/max(len(s.comps), 1)+1)
	}
	//tcnlint:hotpath header column is preallocated to RecordCap records; append grows only past the configured horizon
	r.snaps = append(r.snaps, snap{at: at, scope: s.index})
	for i := range s.comps {
		s.h = NewHash(r.cfg.Seed)
		s.h.WriteUint64(s.chain[i])
		s.comps[i].d.DigestState(&s.h)
		d := s.h.Sum64()
		s.chain[i] = d
		//tcnlint:hotpath digest column is preallocated to RecordCap; append grows only past the configured horizon
		r.digests = append(r.digests, d)
	}
	s.epoch++
	s.fineOn = r.cfg.Fine &&
		s.epoch >= r.cfg.FineAtEpoch && s.epoch <= r.cfg.FineAtEpoch+1
}

// FineSnapshot records one per-event digest when the fine bracket is
// open: the whole scope's state chained onto the previous fine digest.
// event is the engine's cumulative executed-event count. Outside the
// bracket this is one boolean test.
func (s *Scope) FineSnapshot(event uint64, at int64) {
	if !s.fineOn {
		return
	}
	s.h = NewHash(s.rec.cfg.Seed)
	s.h.WriteUint64(s.fineChain)
	for i := range s.comps {
		s.comps[i].d.DigestState(&s.h)
	}
	d := s.h.Sum64()
	s.fineChain = d
	//tcnlint:hotpath fine records only accrue inside the two-epoch bracket the drill-in rerun requests
	s.rec.fine = append(s.rec.fine, fineRec{scope: s.index, event: event, at: at, digest: d})
}
