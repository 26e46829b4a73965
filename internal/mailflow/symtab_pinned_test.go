package mailflow

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/symtab"
)

// assignmentDigest hashes "<id> <string>\n" for every ID of tab, ID 0
// included, so any change to which string an ID names — a reordered
// intern, a skipped or extra symbol — changes the digest.
func assignmentDigest(tab *symtab.Table) string {
	h := sha256.New()
	for id := 0; id < tab.Len(); id++ {
		fmt.Fprintf(h, "%d %s\n", id, tab.Lookup(symtab.ID(id)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSymtabAssignmentPinned pins the complete ID→string assignment of
// the world's table, after generation and after a run, to the values
// the map-backed interner produced. TestSymtabAssignmentDeterministicAcrossWorkers
// compares worker counts within one build; this test catches an
// interning order that changed between builds, which would renumber
// every symbol after the first divergence. The paper-scale case is
// the default scenario of cmd/tasters -seed 2010.
func TestSymtabAssignmentPinned(t *testing.T) {
	cases := []struct {
		name      string
		world     func() *ecosystem.World
		cfg       Config
		paper     bool
		genLen    int
		genDigest string
		runLen    int
		runDigest string
	}{
		{
			name:      "small",
			world:     func() *ecosystem.World { return testWorld(7000) },
			cfg:       testConfig(7001),
			genLen:    7872,
			genDigest: "2808359dc0b8a86409d3385ab126bf8aef3dc714926a9ab624a1cc3eac2bc7d8",
			runLen:    35232,
			runDigest: "bea69f74d1017a6ac3ae531a49ab4e6699effb9d33f7c97c8d2efe21d606be5e",
		},
		{
			name: "default-2010",
			world: func() *ecosystem.World {
				return ecosystem.MustGenerate(ecosystem.DefaultConfig(2010))
			},
			cfg:       DefaultConfig(2010 ^ 0x5eed),
			paper:     true,
			genLen:    79200,
			genDigest: "fbfcb486670a01f77842f6aebfb484a4ea803b7504963e5bd10176e1be208865",
			runLen:    296592,
			runDigest: "5e078ef8e20cdaf68f12eeea53db1e4ce7f099acea4061342b1e2bb9eef21eb1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.paper && testing.Short() {
				t.Skip("paper-scale run skipped in -short mode")
			}
			w := c.world()
			if n, d := w.Syms.Len(), assignmentDigest(w.Syms); n != c.genLen || d != c.genDigest {
				t.Errorf("after Generate: %d symbols, digest %s; want %d, %s", n, d, c.genLen, c.genDigest)
			}
			if _, err := New(w, c.cfg).Run(); err != nil {
				t.Fatal(err)
			}
			if n, d := w.Syms.Len(), assignmentDigest(w.Syms); n != c.runLen || d != c.runDigest {
				t.Errorf("after Run: %d symbols, digest %s; want %d, %s", n, d, c.runLen, c.runDigest)
			}
		})
	}
}
