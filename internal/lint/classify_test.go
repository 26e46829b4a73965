package lint

import "testing"

func TestClassify(t *testing.T) {
	cases := []struct {
		path string
		want Class
	}{
		// The four deterministic packages.
		{"tasterschoice/internal/analysis", ClassDeterministic},
		{"tasterschoice/internal/stats", ClassDeterministic},
		{"tasterschoice/internal/mailflow", ClassDeterministic},
		{"tasterschoice/internal/report", ClassDeterministic},

		// The network boundary.
		{"tasterschoice/internal/dnsbl", ClassEdge},
		{"tasterschoice/internal/feedsync", ClassEdge},
		{"tasterschoice/internal/smtpd", ClassEdge},
		{"tasterschoice/internal/lifecycle", ClassEdge},

		// distsweep is engine-strict despite speaking a wire protocol:
		// its whole contract is deterministic, byte-identical output.
		{"tasterschoice/internal/distsweep", ClassEngine},

		// overload is engine-strict despite serving edge callers: its
		// shed decisions must replay bit-for-bit from (seed, clock).
		{"tasterschoice/internal/overload", ClassEngine},

		// dnsblplane serves sockets but keeps the engine contract: an
		// answer is a pure function of (query bytes, listing state).
		{"tasterschoice/internal/dnsblplane", ClassEngine},

		// Unlisted internal packages default to the strict engine class.
		{"tasterschoice/internal/parallel", ClassEngine},
		{"tasterschoice/internal/obs", ClassEngine},
		{"tasterschoice/internal/somefuturepkg", ClassEngine},

		// Subpackages inherit their nearest listed ancestor.
		{"tasterschoice/internal/stats/histogram", ClassDeterministic},
		{"tasterschoice/internal/smtpd/wire", ClassEdge},

		// go test package variants classify like the package under test.
		{"tasterschoice/internal/stats [tasterschoice/internal/stats.test]", ClassDeterministic},
		{"tasterschoice/internal/stats_test", ClassDeterministic},
		{"tasterschoice/internal/smtpd_test [tasterschoice/internal/smtpd.test]", ClassEdge},

		// Everything outside internal/ is exempt.
		{"tasterschoice/cmd/tastervet", ClassExempt},
		{"fmt", ClassExempt},
		{"example.com/other/internal/stats", ClassExempt},
	}
	for _, tc := range cases {
		if got := Classify(tc.path); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestClassOrdering(t *testing.T) {
	// The analyzers gate on comparisons, so the strictness order is
	// load-bearing: exempt < edge < engine < deterministic.
	if !(ClassExempt < ClassEdge && ClassEdge < ClassEngine && ClassEngine < ClassDeterministic) {
		t.Fatalf("class ordering broken: exempt=%d edge=%d engine=%d deterministic=%d",
			ClassExempt, ClassEdge, ClassEngine, ClassDeterministic)
	}
}

func TestNeedsCtxContract(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"tasterschoice/internal/distsweep", true},
		{"tasterschoice/internal/dnsbl", true},
		{"tasterschoice/internal/dnsblplane", true},
		{"tasterschoice/internal/feedsync", true},
		{"tasterschoice/internal/smtpd", true},
		{"tasterschoice/internal/overload", true},
		{"tasterschoice/internal/overload_test", true},
		{"tasterschoice/internal/smtpd/wire", true}, // subpackages inherit
		{"tasterschoice/internal/smtpd_test", true},
		{"tasterschoice/internal/mta", false}, // edge, but not under the ctx contract
		{"tasterschoice/internal/stats", false},
		{"tasterschoice/cmd/tastervet", false},
		{"fmt", false},
	}
	for _, tc := range cases {
		if got := NeedsCtxContract(tc.path); got != tc.want {
			t.Errorf("NeedsCtxContract(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestNeedsNilGuard(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"tasterschoice/internal/obs", true},
		{"tasterschoice/internal/obs [tasterschoice/internal/obs.test]", true},
		{"tasterschoice/internal/stats", false},
		{"fmt", false},
	}
	for _, tc := range cases {
		if got := NeedsNilGuard(tc.path); got != tc.want {
			t.Errorf("NeedsNilGuard(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestNeedsStringAlloc(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		// Dataset-build hot paths.
		{"tasterschoice/internal/feeds", true},
		{"tasterschoice/internal/symtab", true},
		// The query plane's read loop answers once per datagram: string
		// building per query would dominate the profile.
		{"tasterschoice/internal/dnsblplane", true},
		{"tasterschoice/internal/dnsblplane_test", true},
		// Edge and reporting packages build strings as their job.
		{"tasterschoice/internal/dnsbl", false},
		{"tasterschoice/internal/report", false},
		{"fmt", false},
	}
	for _, tc := range cases {
		if got := NeedsStringAlloc(tc.path); got != tc.want {
			t.Errorf("NeedsStringAlloc(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestCanonicalPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"tasterschoice/internal/stats", "tasterschoice/internal/stats"},
		{"tasterschoice/internal/stats [tasterschoice/internal/stats.test]", "tasterschoice/internal/stats"},
		{"tasterschoice/internal/stats_test", "tasterschoice/internal/stats"},
		{"tasterschoice/internal/stats_test [tasterschoice/internal/stats.test]", "tasterschoice/internal/stats"},
	}
	for _, tc := range cases {
		if got := canonicalPath(tc.in); got != tc.want {
			t.Errorf("canonicalPath(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
