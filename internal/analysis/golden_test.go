package analysis

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The analysis determinism contract: every parallel table computation
// returns rows byte-identical to the pinned serial reference, at any
// GOMAXPROCS, and identical across repeated runs. These tests fan the
// comparisons across GOMAXPROCS 1, 4 and 8 (worker counts inside the
// analyses follow GOMAXPROCS).

var goldenProcs = []int{1, 4, 8}

// atProcs runs fn under each GOMAXPROCS setting, restoring the
// original value afterwards.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range goldenProcs {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("gomaxprocs=%d", p), fn)
	}
}

func TestGoldenCoverageMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	for _, class := range []DomainClass{ClassAll, ClassLive, ClassTagged} {
		want := CoverageSerial(ds, class)
		atProcs(t, func(t *testing.T) {
			got := Coverage(ds, class)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("class %s: parallel coverage diverged\n got: %+v\nwant: %+v", class, got, want)
			}
			again := Coverage(ds, class)
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("class %s: coverage not repeatable", class)
			}
		})
	}
}

func TestGoldenIntersectionsMatchSerial(t *testing.T) {
	ds := testDataset(t)
	for _, class := range []DomainClass{ClassAll, ClassLive, ClassTagged} {
		want := IntersectionsSerial(ds, class)
		atProcs(t, func(t *testing.T) {
			got := Intersections(ds, class)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("class %s: parallel intersections diverged", class)
			}
		})
	}
}

func TestGoldenPurityMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	want := PuritySerial(ds)
	atProcs(t, func(t *testing.T) {
		if got := Purity(ds); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel purity diverged\n got: %+v\nwant: %+v", got, want)
		}
	})
}

func TestGoldenProportionRepeatable(t *testing.T) {
	ds := testDataset(t)
	wantVD := VariationDistances(ds)
	wantKT := KendallTaus(ds)
	atProcs(t, func(t *testing.T) {
		if got := VariationDistances(ds); !reflect.DeepEqual(got, wantVD) {
			t.Fatal("variation distances differ across worker counts")
		}
		if got := KendallTaus(ds); !reflect.DeepEqual(got, wantKT) {
			t.Fatal("Kendall taus differ across worker counts")
		}
	})
}

func TestGoldenTimingRepeatable(t *testing.T) {
	ds := testDataset(t)
	names := Fig9Feeds(ds)
	wantFirst := FirstAppearance(ds, names)
	wantLast := LastAppearance(ds, HoneypotFeeds)
	wantDur := Duration(ds, HoneypotFeeds)
	atProcs(t, func(t *testing.T) {
		if got := FirstAppearance(ds, names); !reflect.DeepEqual(got, wantFirst) {
			t.Fatal("first-appearance rows differ across worker counts")
		}
		if got := LastAppearance(ds, HoneypotFeeds); !reflect.DeepEqual(got, wantLast) {
			t.Fatal("last-appearance rows differ across worker counts")
		}
		if got := Duration(ds, HoneypotFeeds); !reflect.DeepEqual(got, wantDur) {
			t.Fatal("duration rows differ across worker counts")
		}
	})
}

func TestGoldenSelectionMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	for _, class := range []DomainClass{ClassAll, ClassLive, ClassTagged} {
		want := GreedySelectionSerial(ds, class)
		atProcs(t, func(t *testing.T) {
			if got := GreedySelection(ds, class); !reflect.DeepEqual(got, want) {
				t.Fatalf("class %s: greedy selection diverged\n got: %+v\nwant: %+v", class, got, want)
			}
		})
	}
}

func TestGoldenReconstructionMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	for _, slack := range []time.Duration{12 * time.Hour, 10000 * time.Hour} {
		want := make([]Reconstruction, 0, len(ds.Result.Order))
		for _, name := range ds.Result.Order {
			want = append(want, ReconstructCampaignsSerial(ds, name, slack))
		}
		atProcs(t, func(t *testing.T) {
			if got := ReconstructAll(ds, slack); !reflect.DeepEqual(got, want) {
				t.Fatalf("slack %v: reconstruction diverged\n got: %+v\nwant: %+v", slack, got, want)
			}
		})
	}
}

func TestGoldenProportionMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	wantVD := VariationDistancesSerial(ds)
	wantKT := KendallTausSerial(ds)
	atProcs(t, func(t *testing.T) {
		if got := VariationDistances(ds); !reflect.DeepEqual(got, wantVD) {
			t.Fatalf("variation distances diverged\n got: %+v\nwant: %+v", got, wantVD)
		}
		if got := KendallTaus(ds); !reflect.DeepEqual(got, wantKT) {
			t.Fatalf("Kendall taus diverged\n got: %+v\nwant: %+v", got, wantKT)
		}
	})
}
