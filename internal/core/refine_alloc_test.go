//go:build !race

// The race detector makes sync.Pool drop pooled items at random, so
// allocation counts are only meaningful without it.

package core

import (
	"crypto/aes"
	"crypto/cipher"
	"testing"

	"simcloud/internal/secret"
	"simcloud/internal/stats"
)

// refineAllocCeiling bounds one refine's allocations that do not come from
// the cipher: the survivors' results and their vectors (keep), with slack
// for a pool refill. It does not grow with the candidate count.
const refineAllocCeiling = 4

// TestRefineAllocs pins the allocations of a 400-candidate approximate
// refine. GCM decrypts into reused scratch with no allocation at all, so
// its ceiling is the constant. CTR mode additionally pays what
// cipher.NewCTR itself allocates for each candidate's stream (the standard
// library copies the key schedule into every stream; no caller can reuse
// one across IVs), measured here rather than assumed.
func TestRefineAllocs(t *testing.T) {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	iv, buf := make([]byte, aes.BlockSize), make([]byte, 64)
	perStream := testing.AllocsPerRun(100, func() { cipher.NewCTR(block, iv).XORKeyStream(buf, buf) })
	for _, mode := range []secret.Mode{secret.ModeCTRHMAC, secret.ModeGCM} {
		for _, n := range []int{100, 400} {
			c, cands, q := refineFixture(t, mode, n, 96)
			nq := Query{Kind: KindApproxKNN, Vec: q, K: 10}
			var costs stats.Costs
			got := testing.AllocsPerRun(20, func() {
				if _, err := c.finishQuery(nq, cands, &costs); err != nil {
					t.Fatal(err)
				}
			})
			ceiling := float64(refineAllocCeiling)
			if mode == secret.ModeCTRHMAC {
				ceiling += perStream * float64(n)
			}
			if got > ceiling {
				t.Errorf("%v, %d candidates: %.0f allocations per refine, ceiling %.0f", mode, n, got, ceiling)
			}
			t.Logf("%v, %d candidates: %.0f allocations per refine (ceiling %.0f)", mode, n, got, ceiling)
		}
	}
}
