package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tcn/internal/digest"
)

// TestGoldenFingerprints pins the engine's event order end to end. Each
// case runs one experiment with a fingerprint recorder attached and
// compares the SHA-256 of the recorder's WriteJSONL stream with a value
// recorded when the engine still shipped a second, binary-heap event store,
// and shown there to be the same under both stores (testbed-400flows was
// re-pinned since; see its comment). Any change to event
// order, timing, or model state moves the hash; `tcnsim -fingerprint` on
// two builds plus `tcndiff` then localizes where.
func TestGoldenFingerprints(t *testing.T) {
	for _, tc := range []struct {
		name string
		long bool
		want string
		run  func(o *Obs)
	}{
		{
			// A fig6-style cell: SP/DWRR with PIAS under TCN at load 0.7.
			// Re-pinned from cba529e08b762c67… when the epoch ticker
			// learned to stop with the model (sim.Engine.Every): the
			// stream shrank from 803,112 records (66,926 epochs, out to
			// the deadline) to 83,124 (epochs 0–6,926, the last one
			// taken after the cell's last model event), and the new
			// stream is a byte prefix of the old one —
			//   cmp -n $(stat -c%s new.jsonl) new.jsonl old.jsonl
			// exits 0 — so no digest up to the cut moved.
			name: "testbed-400flows", long: true,
			want: "c343133c5c0c62a602dd45b83aa724734c0fa66b28171d3f7c4cc66317e34436",
			run: func(o *Obs) {
				RunTestbedFCT(TestbedFCTConfig{
					Scheme: SchemeTCN, Sched: SchedSPDWRR, PIAS: true,
					Load: 0.7, Flows: 400, Seed: 11,
					ExactFCT: true, Obs: o,
				})
			},
		},
		{
			name: "fig2",
			want: "847c1e584b5b2a9da562188bced0acef0c26cf02c584f4c22415dfdbd043591f",
			run: func(o *Obs) {
				cfg := DefaultFig2()
				cfg.Obs = o
				RunFig2(cfg)
			},
		},
		{
			name: "dcqcn",
			want: "20ec8f5326dbc907d3d23f474e4681c3d0ab20354752ad38aa3a12af669138fc",
			run: func(o *Obs) {
				cfg := DefaultDCQCNSweep()
				cfg.Base.Obs = o
				RunDCQCNSweep(cfg)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("multi-second workload run")
			}
			rec := digest.New(digest.Config{})
			tc.run(&Obs{Fingerprint: rec})
			if rec.Len() == 0 {
				t.Fatal("fingerprint recorder captured no records")
			}
			h := sha256.New()
			if err := rec.WriteJSONL(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("fingerprint stream hash %s, want %s", got, tc.want)
			}
		})
	}
}
