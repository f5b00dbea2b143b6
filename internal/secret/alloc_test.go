//go:build !race

// The race detector makes sync.Pool drop pooled items at random, so
// allocation counts are only meaningful without it.

package secret

import (
	"math/rand/v2"
	"testing"

	"simcloud/internal/metric"
)

// TestCipherAllocs pins the per-object allocations of the cached cipher
// state: DecryptObject pays the CTR stream (CTR mode) and the returned
// vector, EncryptObject the stream and the ciphertext, and a batch of
// OpenObjects in GCM mode nothing at all once its slab is warm.
func TestCipherAllocs(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			k := testKey(t, mode)
			objs := randomObjects(rand.New(rand.NewPCG(3, 4)), 40)
			cts := encryptAll(t, k, objs)
			o := metric.Object{ID: 1, Vec: make(metric.Vector, 96)}
			if got := testing.AllocsPerRun(200, func() {
				if _, err := k.EncryptObject(o); err != nil {
					t.Fatal(err)
				}
			}); got > 2 {
				t.Errorf("EncryptObject: %.0f allocations, want at most 2", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, err := k.DecryptObject(cts[7]); err != nil {
					t.Fatal(err)
				}
			}); got > 2 {
				t.Errorf("DecryptObject: %.0f allocations, want at most 2", got)
			}
			dst := make([]metric.Object, len(cts))
			slab, err := k.OpenObjects(cts, dst, nil)
			if err != nil {
				t.Fatal(err)
			}
			perObject := 0.0
			if mode == ModeCTRHMAC {
				perObject = 1 // cipher.NewCTR's stream
			}
			if got := testing.AllocsPerRun(50, func() {
				if _, err := k.OpenObjects(cts, dst, slab[:0]); err != nil {
					t.Fatal(err)
				}
			}); got > perObject*float64(len(cts)) {
				t.Errorf("OpenObjects: %.0f allocations for %d objects, want at most %.0f", got, len(cts), perObject*float64(len(cts)))
			}
		})
	}
}
