package analysis

import (
	"fmt"
	"testing"

	"tasterschoice/internal/randutil"
)

// pairCountsNaive is pairCounts by visiting every pair, as
// ReconstructCampaignsSerial scores its clustering.
func pairCountsNaive(ms []member) (sameCluster, sameCampaign, sameBoth, campaigns int) {
	seen := map[int]bool{}
	for i := range ms {
		seen[ms[i].campaign] = true
		for j := i + 1; j < len(ms); j++ {
			sc := ms[i].cluster == ms[j].cluster
			st := ms[i].campaign == ms[j].campaign
			if sc {
				sameCluster++
			}
			if st {
				sameCampaign++
			}
			if sc && st {
				sameBoth++
			}
		}
	}
	return sameCluster, sameCampaign, sameBoth, len(seen)
}

func TestPairCountsMatchNaive(t *testing.T) {
	rng := randutil.New(7)
	random := make([]member, 1000)
	for i := range random {
		random[i] = member{cluster: rng.Intn(60), campaign: rng.Intn(40)}
	}
	oneCluster := make([]member, 50)
	distinct := make([]member, 50)
	for i := range distinct {
		oneCluster[i] = member{cluster: 0, campaign: i % 7}
		distinct[i] = member{cluster: i, campaign: 49 - i}
	}
	for _, tc := range []struct {
		name string
		ms   []member
	}{
		{"empty", nil},
		{"one", []member{{cluster: 3, campaign: 9}}},
		{"one-cluster", oneCluster},
		{"distinct", distinct},
		{"random", random},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2, c3, c4 := pairCountsNaive(tc.ms)
			want := fmt.Sprint(c1, c2, c3, c4)
			g1, g2, g3, g4 := pairCounts(tc.ms)
			if got := fmt.Sprint(g1, g2, g3, g4); got != want {
				t.Fatalf("pairCounts = %s, want %s (same cluster, campaign, both; campaigns)", got, want)
			}
		})
	}
}
