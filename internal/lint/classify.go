package lint

import "strings"

// Class places a package on the determinism spectrum the analyzers key
// off. The classification lives here, in one table, so adding a
// package means one line — not edits to five analyzers.
type Class int

const (
	// ClassExempt packages (cmd/, examples/, the module root, anything
	// unlisted outside internal/) are entry points and harnesses; they
	// may touch the wall clock and real I/O freely.
	ClassExempt Class = iota
	// ClassEdge packages sit on the network boundary. They may use the
	// wall clock (deadlines, backoff sleeps) but their exported
	// blocking APIs must follow the Context-variant convention and
	// nothing in them may consume global math/rand state.
	ClassEdge
	// ClassEngine packages are simulation and infrastructure code that
	// must be wall-clock free (simclock.Clock or an injected func() is
	// the only time source) and global-rand free.
	ClassEngine
	// ClassDeterministic packages produce the paper's comparison
	// output. Everything in ClassEngine applies, plus float64
	// accumulation over map iteration order is forbidden — one
	// unsorted sum makes the purity/coverage/timing tables drift
	// between runs in the last ulp.
	ClassDeterministic
)

func (c Class) String() string {
	switch c {
	case ClassEdge:
		return "edge"
	case ClassEngine:
		return "engine"
	case ClassDeterministic:
		return "deterministic"
	default:
		return "exempt"
	}
}

// modulePrefix is the import-path prefix of this module's packages.
const modulePrefix = "tasterschoice/"

// classTable is the single source of truth for non-default classes.
// Keys are import paths relative to internal/. Internal packages not
// listed default to ClassEngine — a new package gets the strict
// contract until someone consciously relaxes it here.
var classTable = map[string]Class{
	// Deterministic output: the comparison tables and the engine that
	// feeds them.
	"analysis": ClassDeterministic,
	"stats":    ClassDeterministic,
	"mailflow": ClassDeterministic,
	"report":   ClassDeterministic,

	// The sharded query plane serves sockets like an edge package but
	// keeps the strict engine contract: an answer must be a pure
	// function of (query bytes, listing state), replayable under an
	// injected clock, which is what the chaos oracle asserts. Because
	// its server blocks on sockets, it also opts into ctxblocking
	// below, and its read loop joins the stringalloc hot-path set.
	"dnsblplane": ClassEngine,

	// Admission control: overload is listed explicitly rather than
	// left to the default — its shed decisions must replay bit-for-bit
	// from (seed, clock), so it keeps the engine clock/RNG contract
	// even though every caller is an edge package. It is also on the
	// ctxblocking list below, though it has no blocking API: every
	// decision is an immediate admit or shed.
	"overload": ClassEngine,

	// Network boundary: sockets, deadlines, drains.
	"dnsbl":     ClassEdge,
	"faultnet":  ClassEdge,
	"feedsync":  ClassEdge,
	"lifecycle": ClassEdge,
	"mta":       ClassEdge,
	"smtpd":     ClassEdge,
	"webhost":   ClassEdge,
}

// ctxContractPackages are the packages whose exported blocking APIs
// must offer a context.Context variant (the convention the edge
// packages established: Listed/ListedContext, Tail/TailDurable). sweep
// is an engine package on the list because RunLocal blocks for the
// whole sweep and takes the context that interrupts it.
var ctxContractPackages = map[string]bool{
	"dnsbl":      true,
	"dnsblplane": true,
	"feedsync":   true,
	"overload":   true,
	"smtpd":      true,
	"sweep":      true,
}

// nilGuardPackages are the packages whose exported pointer-receiver
// methods must open with a nil-receiver guard, protecting the
// documented "nil instrument is a free noop" contract.
var nilGuardPackages = map[string]bool{
	"obs": true,
}

// stringAllocPackages are the dataset-build hot-path packages where
// per-iteration string building is banned: these run loops once per
// message (or once per domain × feed), and the interned-symbol design
// keeps them allocation-free. Diagnostic, reporting and edge packages
// build strings as their job and stay out of this set.
var stringAllocPackages = map[string]bool{
	"analysis":   true,
	"dnsblplane": true,
	"dnszone":    true,
	"domain":     true,
	"ecosystem":  true,
	"feeds":      true,
	"mailflow":   true,
	"oracle":     true,
	"randutil":   true,
	"simclock":   true,
	"stats":      true,
	"symtab":     true,
	"webcrawl":   true,
}

// canonicalPath strips go test's package-variant decorations: the
// " [pkg.test]" suffix on internal test variants and the trailing
// "_test" of external test packages, so fixtures and -tests runs
// classify like the package under test.
func canonicalPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, "_test")
	return path
}

// internalName returns the path relative to <module>/internal/ and
// whether the package lives there at all.
func internalName(path string) (string, bool) {
	path = canonicalPath(path)
	rest, ok := strings.CutPrefix(path, modulePrefix+"internal/")
	if !ok {
		return "", false
	}
	return rest, true
}

// Classify returns the class of an import path. Subpackages inherit
// their nearest listed ancestor's class (internal/lint/testdata paths
// never reach this: fixtures carry explicit masquerade paths).
func Classify(path string) Class {
	name, ok := internalName(path)
	if !ok {
		return ClassExempt
	}
	for {
		if c, listed := classTable[name]; listed {
			return c
		}
		i := strings.LastIndex(name, "/")
		if i < 0 {
			return ClassEngine
		}
		name = name[:i]
	}
}

// NeedsCtxContract reports whether ctxblocking applies to the package.
func NeedsCtxContract(path string) bool {
	name, ok := internalName(path)
	if !ok {
		return false
	}
	if i := strings.Index(name, "/"); i >= 0 {
		name = name[:i]
	}
	return ctxContractPackages[name]
}

// NeedsNilGuard reports whether nilguard applies to the package.
func NeedsNilGuard(path string) bool {
	name, ok := internalName(path)
	if !ok {
		return false
	}
	return nilGuardPackages[name]
}

// NeedsStringAlloc reports whether stringalloc applies to the package.
// Subpackages inherit their top-level package's membership.
func NeedsStringAlloc(path string) bool {
	name, ok := internalName(path)
	if !ok {
		return false
	}
	if i := strings.Index(name, "/"); i >= 0 {
		name = name[:i]
	}
	return stringAllocPackages[name]
}
