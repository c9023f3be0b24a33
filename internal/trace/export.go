package trace

import (
	"bufio"
	"encoding/json"
	"io"
)

// WriteJSONL dumps the retained events, oldest first, as newline-
// delimited JSON (one event per line) for offline analysis. Counters
// are exact even after eviction, so a trailing summary line carries
// them: {"summary":true,"tx":N,"mark":N,"drop":N,"retained":N}.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	events := t.Events()
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	summary := struct {
		Summary  bool  `json:"summary"`
		Tx       int64 `json:"tx"`
		Mark     int64 `json:"mark"`
		Drop     int64 `json:"drop"`
		Retained int   `json:"retained"`
	}{true, t.Count(Transmit), t.Count(Mark), t.Count(Drop), len(events)}
	if err := enc.Encode(summary); err != nil {
		return err
	}
	return bw.Flush()
}
