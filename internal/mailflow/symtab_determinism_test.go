package mailflow

import (
	"testing"

	"tasterschoice/internal/ecosystem"
)

// The interning contract: symbol IDs are assigned on one goroutine at
// a time, in a fixed order — world generation, then the engine's mint
// goroutine — so the complete ID→string mapping after a run is a pure
// function of the seed, identical for every Workers setting. Campaign
// planning and replay may only Lookup, never Intern.

// runSymtabDigest builds a fresh world (so interning replays from
// scratch) and returns the table digest after a full engine run.
func runSymtabDigest(t *testing.T, workers int) string {
	t.Helper()
	w := testWorld(7000)
	cfg := testConfig(7001)
	cfg.Workers = workers
	if _, err := New(w, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	return assignmentDigest(w.Syms)
}

func TestSymtabAssignmentDeterministicAcrossWorkers(t *testing.T) {
	want := runSymtabDigest(t, 1)
	for _, workers := range []int{4, 8} {
		if got := runSymtabDigest(t, workers); got != want {
			t.Fatalf("symbol ID assignment diverged at Workers=%d", workers)
		}
	}
}

// TestWorldSymsPopulated checks that world generation interns every
// campaign and benign domain eagerly, so replay never takes an intern
// slow path for planned traffic.
func TestWorldSymsPopulated(t *testing.T) {
	w := testWorld(7002)
	if w.Syms == nil {
		t.Fatal("Generate did not populate World.Syms")
	}
	for ci := range w.Campaigns {
		for _, slot := range w.Campaigns[ci].Domains {
			if slot.Sym == 0 || slot.URLSym == 0 {
				t.Fatalf("campaign %d domain %q not interned", ci, slot.Name)
			}
			if got := w.Syms.Lookup(slot.Sym); got != string(slot.Name) {
				t.Fatalf("campaign domain sym mismatch: %q != %q", got, slot.Name)
			}
			if got := w.Syms.Lookup(slot.URLSym); got != ecosystem.AdURL(&w.Campaigns[ci], slot) {
				t.Fatalf("campaign URL sym mismatch for %q: %q", slot.Name, got)
			}
		}
	}
	for i := range w.Benign {
		b := &w.Benign[i]
		if b.Sym == 0 || b.URLSym == 0 {
			t.Fatalf("benign domain %q not interned", b.Name)
		}
		if got := w.Syms.Lookup(b.Sym); got != string(b.Name) {
			t.Fatalf("benign sym mismatch: %q != %q", got, b.Name)
		}
	}
	if len(w.ObscureSyms) != len(w.Obscure) {
		t.Fatalf("ObscureSyms len %d != Obscure len %d", len(w.ObscureSyms), len(w.Obscure))
	}
}
