package digest

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// counter is a minimal Digestable test double.
type counter struct {
	n int64
}

func (c *counter) DigestState(h *Hash) { h.WriteInt64(c.n) }

func TestRecorderChaining(t *testing.T) {
	rec := New(Config{Seed: 9})
	sc := rec.ScopeFor("eng")
	c := &counter{}
	sc.Register(ComponentEngine, "engine", c)

	sc.Snapshot(0)
	c.n = 1
	sc.Snapshot(1000)
	c.n = 1 // same state as epoch 1
	sc.Snapshot(2000)

	recs := rec.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Chaining: identical component state at epochs 1 and 2 must still
	// produce different digests because epoch 2 folds in epoch 1's.
	if recs[1].Digest == recs[2].Digest {
		t.Fatal("chain not folded: identical states produced identical chained digests")
	}
	for i, r := range recs {
		if r.Epoch != int64(i) {
			t.Fatalf("record %d has epoch %d", i, r.Epoch)
		}
		if r.Scope != "cell0" || r.Component != ComponentEngine || r.Label != "engine" {
			t.Fatalf("record %d misidentified: %+v", i, r)
		}
	}
}

func TestRecorderScopeIdentity(t *testing.T) {
	rec := New(Config{})
	a := rec.ScopeFor("engA")
	b := rec.ScopeFor("engB")
	if a == b {
		t.Fatal("distinct owners shared a scope")
	}
	if rec.ScopeFor("engA") != a {
		t.Fatal("ScopeFor not idempotent")
	}
	if rec.ScopeOf("engA") != a || rec.ScopeOf("missing") != nil {
		t.Fatal("ScopeOf lookup broken")
	}
	if a.Label() != "cell0" || b.Label() != "cell1" {
		t.Fatalf("scope labels %q, %q", a.Label(), b.Label())
	}
}

func TestRegisterAfterSnapshotPanics(t *testing.T) {
	rec := New(Config{})
	sc := rec.ScopeFor("eng")
	sc.Register(ComponentEngine, "engine", &counter{})
	sc.Snapshot(0)
	defer func() {
		if recover() == nil {
			t.Fatal("late Register did not panic")
		}
	}()
	sc.Register(ComponentRand, "rand", &counter{})
}

func TestRegisterNilPanics(t *testing.T) {
	rec := New(Config{})
	sc := rec.ScopeFor("eng")
	defer func() {
		if recover() == nil {
			t.Fatal("nil Register did not panic")
		}
	}()
	sc.Register(ComponentEngine, "engine", nil)
}

func TestFineBracket(t *testing.T) {
	rec := New(Config{Fine: true, FineAtEpoch: 2})
	sc := rec.ScopeFor("eng")
	c := &counter{}
	sc.Register(ComponentEngine, "engine", c)

	ev := uint64(0)
	step := func() {
		ev++
		c.n++
		sc.FineSnapshot(ev, int64(ev))
	}
	// Epochs 0 and 1: bracket closed, no fine records.
	step()
	sc.Snapshot(10)
	step()
	sc.Snapshot(20)
	if len(rec.FineRecords()) != 0 {
		t.Fatalf("fine records before bracket: %d", len(rec.FineRecords()))
	}
	// After the 2nd snapshot, epoch counter is 2 == FineAtEpoch: open.
	step()
	step()
	sc.Snapshot(30)
	step()
	sc.Snapshot(40)
	inBracket := len(rec.FineRecords())
	if inBracket != 3 {
		t.Fatalf("fine records in bracket: %d, want 3", inBracket)
	}
	// Epoch counter is now 4 > FineAtEpoch+1: closed again.
	step()
	if len(rec.FineRecords()) != inBracket {
		t.Fatal("fine records accrued after bracket closed")
	}
	// Fine digests chain: record events and monotone event indices.
	f := rec.FineRecords()
	if f[0].Event != 3 || f[1].Event != 4 || f[2].Event != 5 {
		t.Fatalf("fine event indices %d,%d,%d", f[0].Event, f[1].Event, f[2].Event)
	}
	if f[0].Digest == f[1].Digest {
		t.Fatal("fine chain not folded")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := New(Config{Seed: 77, EpochNs: 500, Fine: true, FineAtEpoch: 0})
	sc := rec.ScopeFor("eng")
	c := &counter{}
	sc.Register(ComponentEngine, "engine", c)
	sc.Register(ComponentRand, "flows", c)

	sc.FineSnapshot(1, 100)
	sc.Snapshot(500)
	c.n = 5
	sc.FineSnapshot(2, 700)
	sc.Snapshot(1000)

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tl, err := ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Seed != 77 || tl.EpochNs != 500 {
		t.Fatalf("header round-trip: seed %d epoch %d", tl.Seed, tl.EpochNs)
	}
	if len(tl.Records) != len(rec.Records()) {
		t.Fatalf("records: %d vs %d", len(tl.Records), len(rec.Records()))
	}
	for i, r := range rec.Records() {
		if tl.Records[i] != r {
			t.Fatalf("record %d: %+v vs %+v", i, tl.Records[i], r)
		}
	}
	if len(tl.Fine) != len(rec.FineRecords()) {
		t.Fatalf("fine: %d vs %d", len(tl.Fine), len(rec.FineRecords()))
	}
	for i, f := range rec.FineRecords() {
		if tl.Fine[i] != f {
			t.Fatalf("fine %d: %+v vs %+v", i, tl.Fine[i], f)
		}
	}
}

func TestReadTimelineErrors(t *testing.T) {
	if _, err := ReadTimeline(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	noHeader := `{"scope":"cell0","epoch":0,"at_ns":0,"component":"engine","digest":"00000000000000aa"}` + "\n"
	if _, err := ReadTimeline(bytes.NewReader([]byte(noHeader))); err == nil {
		t.Fatal("headerless stream accepted")
	}
	if _, err := ReadTimeline(bytes.NewReader([]byte("\n" + noHeader))); err == nil {
		t.Fatal("headerless stream behind a blank line accepted")
	}
	if _, err := ReadTimeline(bytes.NewReader([]byte("\n\n\n"))); err == nil {
		t.Fatal("stream of blank lines accepted")
	}
	fineFirst := `{"fine":true,"scope":"cell0","event":1,"epoch":0,"at_ns":0,"digest":"00000000000000aa"}` + "\n" +
		`{"fingerprint":true,"seed":"0000000000000001","epoch_ns":1000,"epoch":0,"at_ns":0}` + "\n"
	if _, err := ReadTimeline(bytes.NewReader([]byte(fineFirst))); err == nil {
		t.Fatal("fine record before the header accepted")
	}
	badComp := `{"fingerprint":true,"seed":"0000000000000001","epoch_ns":1000,"epoch":0,"at_ns":0}` + "\n" +
		`{"scope":"cell0","epoch":0,"at_ns":0,"component":"warpdrive","digest":"00000000000000aa"}` + "\n"
	if _, err := ReadTimeline(bytes.NewReader([]byte(badComp))); err == nil {
		t.Fatal("unknown component accepted")
	}
	badHex := `{"fingerprint":true,"seed":"0000000000000001","epoch_ns":1000,"epoch":0,"at_ns":0}` + "\n" +
		`{"scope":"cell0","epoch":0,"at_ns":0,"component":"engine","digest":"zz"}` + "\n"
	if _, err := ReadTimeline(bytes.NewReader([]byte(badHex))); err == nil {
		t.Fatal("bad digest hex accepted")
	}
}

// FuzzReadTimeline feeds the fingerprint parser arbitrary bytes, seeded
// with a real WriteJSONL stream. It must never panic, and it must reject
// every input whose first non-blank line is not a header.
func FuzzReadTimeline(f *testing.F) {
	rec := New(Config{Seed: 5, EpochNs: 500, Fine: true})
	sc := rec.ScopeFor("eng")
	c := &counter{}
	sc.Register(ComponentEngine, "engine", c)
	sc.Register(ComponentPort, "port", &counter{})
	for ev := uint64(1); ev <= 3; ev++ {
		c.n++
		sc.FineSnapshot(ev, int64(ev)*100)
	}
	sc.Snapshot(500)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(append([]byte("\n"), buf.Bytes()[bytes.IndexByte(buf.Bytes(), '\n')+1:]...))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadTimeline(bytes.NewReader(data)); err != nil {
			return
		}
		// The parser's scanner strips one trailing CR per line and skips
		// empty lines; the first remaining line must be a header.
		for _, ln := range bytes.Split(data, []byte("\n")) {
			ln = bytes.TrimSuffix(ln, []byte("\r"))
			if len(ln) == 0 {
				continue
			}
			var l lineJSON
			if json.Unmarshal(ln, &l) != nil || !l.Fingerprint {
				t.Fatalf("accepted a stream whose first line %q is not a header", ln)
			}
			return
		}
		t.Fatal("accepted a stream with no header")
	})
}

// TestColumnsMatchOldLayout replays a fixture written by the recorder's
// earlier one-struct-per-record store: two scopes of different widths
// snapshot alternately, with fine records from both. The column store
// must rebuild the same records and stream the same bytes.
func TestColumnsMatchOldLayout(t *testing.T) {
	want, err := os.ReadFile("testdata/alternating.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	rec := New(Config{Seed: 3, EpochNs: 250, Fine: true, FineAtEpoch: 1})
	a := rec.ScopeFor("engA")
	b := rec.ScopeFor("engB")
	ca := []*counter{{}, {}, {}}
	cb := []*counter{{}, {}}
	a.Register(ComponentEngine, "engine", ca[0])
	a.Register(ComponentPort, "switch.p0", ca[1])
	a.Register(ComponentTDigest, "fct", ca[2])
	b.Register(ComponentEngine, "engine", cb[0])
	b.Register(ComponentQdisc, "eth0", cb[1])
	ev := uint64(0)
	for epoch := int64(0); epoch < 4; epoch++ {
		for i, c := range ca {
			c.n += int64(i+1) * (epoch + 1)
		}
		ev++
		a.FineSnapshot(ev, epoch*250+10)
		a.Snapshot(epoch * 250)
		for i, c := range cb {
			c.n += int64(i+7) * epoch
		}
		ev++
		b.FineSnapshot(ev, epoch*250+20)
		b.Snapshot(epoch*250 + 1)
	}

	var got bytes.Buffer
	if err := rec.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSONL differs from the old-layout fixture:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	tl, err := ReadTimeline(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	recs := rec.Records()
	if rec.Len() != 20 || len(recs) != len(tl.Records) {
		t.Fatalf("Len %d, Records %d; the fixture holds %d", rec.Len(), len(recs), len(tl.Records))
	}
	for i := range recs {
		if recs[i] != tl.Records[i] {
			t.Fatalf("record %d: %+v, fixture %+v", i, recs[i], tl.Records[i])
		}
	}
	// The reader interns scope and label strings: equal strings share
	// their bytes.
	first := map[string]*byte{}
	for _, r := range tl.Records {
		for _, s := range []string{r.Scope, r.Label} {
			if p, ok := first[s]; !ok {
				first[s] = unsafe.StringData(s)
			} else if p != unsafe.StringData(s) {
				t.Fatalf("ReadTimeline stored %q twice", s)
			}
		}
	}
	fine := rec.FineRecords()
	if len(fine) != len(tl.Fine) {
		t.Fatalf("%d fine records, fixture %d", len(fine), len(tl.Fine))
	}
	for i := range fine {
		if fine[i] != tl.Fine[i] {
			t.Fatalf("fine record %d: %+v, fixture %+v", i, fine[i], tl.Fine[i])
		}
	}
}

func TestSnapshotZeroAlloc(t *testing.T) {
	rec := New(Config{RecordCap: 1 << 15})
	sc := rec.ScopeFor("eng")
	comps := make([]*counter, 4)
	for i := range comps {
		comps[i] = &counter{}
		sc.Register(ComponentPort, "port", comps[i])
	}
	at := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		for i := range comps {
			comps[i].n++
		}
		at += 1000
		sc.Snapshot(at)
	})
	if allocs != 0 { //tcnlint:floatexact AllocsPerRun of a zero-alloc run is exactly 0
		t.Fatalf("Snapshot allocates in steady state: %v allocs/op", allocs)
	}
	// The first snapshot sized the header column for the whole RecordCap
	// at this scope's width, so neither column grows before it is spent.
	if c := cap(rec.snaps); c < (1<<15)/len(comps) {
		t.Fatalf("header column preallocated for %d snapshots, want >= %d", c, (1<<15)/len(comps))
	}
}

// TestRecordByteBudget pins the store's cost per record: a 13-component
// scope (a Fig 6 testbed cell's width) over 10,000 epochs, with RecordCap
// sized to the run, allocates at most 10 bytes per record in total — the
// 8-byte digest plus a share of one 16-byte header per snapshot. A record
// stored as a struct with string headers costs 64.
func TestRecordByteBudget(t *testing.T) {
	const comps, epochs = 13, 10_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := New(Config{RecordCap: comps * epochs})
	sc := rec.ScopeFor("eng")
	c := &counter{}
	for i := 0; i < comps; i++ {
		sc.Register(ComponentPort, "port", c)
	}
	for e := int64(0); e < epochs; e++ {
		c.n++
		sc.Snapshot(e * 1000)
	}
	runtime.ReadMemStats(&after)
	if rec.Len() != comps*epochs {
		t.Fatalf("recorded %d records, want %d", rec.Len(), comps*epochs)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(comps*epochs)
	t.Logf("%.2f B/record", perRecord)
	if perRecord > 10 {
		t.Fatalf("record store allocates %.2f B/record, budget 10", perRecord)
	}
}

func TestFineSnapshotZeroAlloc(t *testing.T) {
	rec := New(Config{Fine: true, FineAtEpoch: 0})
	// Preallocate the fine store so append doesn't grow mid-measurement.
	rec.fine = make([]fineRec, 0, 1<<12)
	sc := rec.ScopeFor("eng")
	c := &counter{}
	sc.Register(ComponentEngine, "engine", c)
	ev := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		ev++
		c.n++
		sc.FineSnapshot(ev, int64(ev))
	})
	if allocs != 0 { //tcnlint:floatexact AllocsPerRun of a zero-alloc run is exactly 0
		t.Fatalf("FineSnapshot allocates: %v allocs/op", allocs)
	}
}
