package incremental_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/incremental"
	"repro/internal/native"
)

// TestEngineMatchesNativeLabels: one-batch ingestion must produce the
// exact labels of the native engine (both canonicalize to component
// minima), not merely the same partition. It lives in the external
// test package because native imports this one for its find/link.
func TestEngineMatchesNativeLabels(t *testing.T) {
	for name, g := range incremental.Zoo() {
		t.Run(name, func(t *testing.T) {
			e := incremental.New(g.N, incremental.Options{})
			defer e.Close()
			snap := e.AddGraph(g)
			nat := native.Components(g, 0)
			if len(snap.Labels) != len(nat.Labels) {
				t.Fatalf("label lengths differ: %d vs %d", len(snap.Labels), len(nat.Labels))
			}
			for v := range snap.Labels {
				if snap.Labels[v] != nat.Labels[v] {
					t.Fatalf("label[%d] = %d, native %d", v, snap.Labels[v], nat.Labels[v])
				}
			}
			if err := check.SamePartition(snap.Labels, baseline.Components(g)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
