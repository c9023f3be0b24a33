package digest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Timeline is a parsed fingerprint stream: the header parameters plus the
// epoch and fine records in file order. Two timelines are comparable only
// when their seeds and epoch periods match.
type Timeline struct {
	Seed    uint64
	EpochNs int64
	Records []Record
	Fine    []FineRecord
}

// lineJSON is the single JSONL wire form: the header line sets
// "fingerprint":true, fine records set "fine":true, everything else is an
// epoch record. Digests travel as 16-hex-digit strings — JSON numbers
// cannot carry a uint64 exactly.
type lineJSON struct {
	Fingerprint bool   `json:"fingerprint,omitempty"`
	Seed        string `json:"seed,omitempty"`
	EpochNs     int64  `json:"epoch_ns,omitempty"`

	Fine  bool   `json:"fine,omitempty"`
	Event uint64 `json:"event,omitempty"`

	Scope     string `json:"scope,omitempty"`
	Epoch     int64  `json:"epoch"`
	At        int64  `json:"at_ns"`
	Component string `json:"component,omitempty"`
	Label     string `json:"label,omitempty"`
	Digest    string `json:"digest,omitempty"`
}

// hex64 renders a digest as a fixed-width hex string.
func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// parseHex64 inverts hex64.
func parseHex64(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

// WriteJSONL streams the timeline: one header line, every epoch record in
// snapshot order, then every fine record. Append order is deterministic
// (cells run serially under a recorder, snapshots fire on the sim clock),
// so two identical runs export identical bytes.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := lineJSON{Fingerprint: true, Seed: hex64(r.cfg.Seed), EpochNs: r.cfg.EpochNs}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	err := r.eachRecord(func(rec Record) error {
		return enc.Encode(lineJSON{
			Scope: rec.Scope, Epoch: rec.Epoch, At: rec.At,
			Component: rec.Component.String(), Label: rec.Label,
			Digest: hex64(rec.Digest),
		})
	})
	if err != nil {
		return err
	}
	for _, f := range r.fine {
		if err := enc.Encode(lineJSON{
			Fine: true, Scope: r.scopes[f.scope].label, Event: f.event, At: f.at,
			Digest: hex64(f.digest),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTimeline parses a fingerprint JSONL stream written by WriteJSONL.
// Scope and label strings are interned: a timeline holds each distinct
// one once, however many records name it.
func ReadTimeline(r io.Reader) (*Timeline, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	tl := &Timeline{}
	strs := map[string]string{}
	intern := func(s string) string {
		if v, ok := strs[s]; ok {
			return v
		}
		strs[s] = s
		return s
	}
	line := 0
	header := false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l lineJSON
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("digest: line %d: %w", line, err)
		}
		if !header && !l.Fingerprint {
			return nil, fmt.Errorf("digest: line %d: not a fingerprint stream (missing header line)", line)
		}
		switch {
		case l.Fingerprint:
			seed, err := parseHex64(l.Seed)
			if err != nil {
				return nil, fmt.Errorf("digest: line %d: bad seed %q", line, l.Seed)
			}
			tl.Seed = seed
			tl.EpochNs = l.EpochNs
			header = true
		case l.Fine:
			d, err := parseHex64(l.Digest)
			if err != nil {
				return nil, fmt.Errorf("digest: line %d: bad digest %q", line, l.Digest)
			}
			tl.Fine = append(tl.Fine, FineRecord{Scope: intern(l.Scope), Event: l.Event, At: l.At, Digest: d})
		default:
			c, ok := ParseComponent(l.Component)
			if !ok {
				return nil, fmt.Errorf("digest: line %d: unknown component %q", line, l.Component)
			}
			d, err := parseHex64(l.Digest)
			if err != nil {
				return nil, fmt.Errorf("digest: line %d: bad digest %q", line, l.Digest)
			}
			tl.Records = append(tl.Records, Record{
				Scope: intern(l.Scope), Epoch: l.Epoch, At: l.At,
				Component: c, Label: intern(l.Label), Digest: d,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("digest: empty fingerprint stream")
	}
	return tl, nil
}
