package oracle

import (
	"runtime"
	"testing"

	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

func TestRecordWindowing(t *testing.T) {
	w := simclock.NewWindow(5)
	o := New(w)
	const d = symtab.ID(7)
	start, end := w.Start.UnixNano(), w.End.UnixNano()
	o.RecordID(start, d)   // inside
	o.RecordID(end-1, d)   // inside
	o.RecordID(end, d)     // outside
	o.RecordID(start-1, d) // outside
	if got := o.VolumeID(d); got != 2 {
		t.Fatalf("VolumeID = %d, want 2", got)
	}
	if o.Total() != 2 || o.Unique() != 1 {
		t.Fatalf("total=%d unique=%d", o.Total(), o.Unique())
	}
}

func TestAddBulk(t *testing.T) {
	o := New(simclock.NewWindow(5))
	const big, ignored, ignored2 = symtab.ID(1), symtab.ID(2), symtab.ID(3)
	o.AddBulkID(big, 1000)
	o.AddBulkID(big, 500)
	o.AddBulkID(ignored, 0)
	o.AddBulkID(ignored2, -5)
	if o.VolumeID(big) != 1500 {
		t.Fatalf("VolumeID = %d", o.VolumeID(big))
	}
	if o.Unique() != 1 || o.Total() != 1500 {
		t.Fatalf("unique=%d total=%d", o.Unique(), o.Total())
	}
}

// TestVolumes checks that an ID never recorded reads 0, whether it
// lies inside the grown count array or beyond its end.
func TestVolumes(t *testing.T) {
	o := New(simclock.NewWindow(5))
	o.AddBulkID(5, 10)
	for _, tc := range []struct {
		id   symtab.ID
		want int64
	}{{5, 10}, {0, 0}, {4, 0}, {6, 0}, {1 << 20, 0}} {
		if got := o.VolumeID(tc.id); got != tc.want {
			t.Errorf("VolumeID(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

func TestPaperOracleWindow(t *testing.T) {
	m := simclock.PaperWindow()
	w := PaperOracleWindow(m)
	if w.Days() != 5 {
		t.Fatalf("oracle window %d days", w.Days())
	}
	if w.Start.Before(m.Start) || w.End.After(m.End) {
		t.Fatalf("oracle window %v outside measurement", w)
	}
}

// TestOracleScalesLinearly records one message for each of n fresh,
// increasing IDs, the order in which the engine's poison phase mints
// them, and checks that the heap bytes per new ID stay flat as n grows
// eightfold. A count array copied whenever a new highest ID arrives
// allocates in proportion to the IDs seen so far, so its bytes per ID
// would grow about eightfold too.
func TestOracleScalesLinearly(t *testing.T) {
	w := simclock.NewWindow(5)
	perID := func(n int) float64 {
		o := New(w)
		at := w.Start.UnixNano()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for id := 1; id <= n; id++ {
			o.RecordID(at, symtab.ID(id))
		}
		runtime.ReadMemStats(&after)
		if o.Unique() != n {
			t.Fatalf("Unique = %d after %d fresh IDs", o.Unique(), n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	const n = 16_384
	small, large := perID(n), perID(8*n)
	t.Logf("heap bytes per new ID: %.1f at %d IDs, %.1f at %d", small, n, large, 8*n)
	if large > 2*small {
		t.Fatalf("oracle allocates %.0f B per new ID at %d IDs but %.0f B at %d",
			small, n, large, 8*n)
	}
}
