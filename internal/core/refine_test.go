package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
)

// checkOwnVectors fails unless every result's vector equals the plaintext
// object bit for bit.
func checkOwnVectors(t *testing.T, what string, rs []Result, plain map[uint64]metric.Vector) {
	t.Helper()
	for i, r := range rs {
		want := plain[r.ID]
		if len(r.Object.Vec) != len(want) {
			t.Fatalf("%s: result %d (ID %d): %d dims, want %d", what, i, r.ID, len(r.Object.Vec), len(want))
		}
		for d := range want {
			if math.Float32bits(r.Object.Vec[d]) != math.Float32bits(want[d]) {
				t.Fatalf("%s: result %d (ID %d) dim %d: %v, want %v", what, i, r.ID, d, r.Object.Vec[d], want[d])
			}
		}
	}
}

// TestRefineResultsOwnTheirVectors: refine decodes every candidate into a
// pooled slab, so a returned answer must hold copies, never windows of that
// slab. Results held across concurrent Search and SearchBatch calls on the
// same client — which lease and overwrite pooled slabs — must still equal
// the plaintext, on every backend that refines client-side. Run under
// -race this also proves concurrent queries never share scratch.
func TestRefineResultsOwnTheirVectors(t *testing.T) {
	enc, _, direct, ds := threeBackends(t)
	km, _ := kmeansBackend(t, ds, 12, true)
	plain := make(map[uint64]metric.Vector, len(ds.Objects))
	for _, o := range ds.Objects {
		plain[o.ID] = o.Vec
	}
	for _, b := range []struct {
		name string
		s    Searcher
	}{{"encrypted", enc}, {"direct", direct}, {"kmeans", km}} {
		t.Run(b.name, func(t *testing.T) {
			ctx := context.Background()
			v := ds.Objects[3].Vec
			var held [][]Result
			for _, q := range []Query{
				{Kind: KindApproxKNN, Vec: v, K: 10, CandSize: 200},
				{Kind: KindRange, Vec: v, Radius: 6},
				{Kind: KindKNN, Vec: v, K: 10, CandSize: 80},
			} {
				rs, _, err := b.s.Search(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				checkOwnVectors(t, "before", rs, plain)
				held = append(held, rs)
			}
			batch, _, err := b.s.SearchBatch(ctx, []Query{
				{Kind: KindApproxKNN, Vec: v, K: 7, CandSize: 150},
				{Kind: KindKNN, Vec: v, K: 5, CandSize: 60},
			})
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, batch...)

			var wg sync.WaitGroup
			for g := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(g), 99))
					for i := range 12 {
						q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
						if i%2 == 0 {
							rs, _, err := b.s.Search(ctx, Query{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 200})
							if err != nil {
								t.Error(err)
								return
							}
							checkOwnVectors(t, "concurrent search", rs, plain)
							continue
						}
						out, _, err := b.s.SearchBatch(ctx, []Query{
							{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 200},
							{Kind: KindRange, Vec: q, Radius: 4},
							{Kind: KindKNN, Vec: q, K: 5, CandSize: 50},
						})
						if err != nil {
							t.Error(err)
							return
						}
						for _, rs := range out {
							checkOwnVectors(t, "concurrent batch", rs, plain)
						}
					}
				}()
			}
			wg.Wait()
			for i, rs := range held {
				checkOwnVectors(t, fmt.Sprintf("held answer %d after concurrent queries", i), rs, plain)
			}
		})
	}
}

// refineFixture encrypts n random dim-dimensional objects as candidate
// entries for a coder over a key of the given mode.
func refineFixture(tb testing.TB, mode secret.Mode, n, dim int) (*coder, []mindex.Entry, metric.Vector) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), uint64(dim)))
	vec := func() metric.Vector {
		v := make(metric.Vector, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		return v
	}
	key, err := secret.Generate(pivot.NewSet(metric.L2{}, []metric.Vector{vec(), vec()}), mode)
	if err != nil {
		tb.Fatal(err)
	}
	c := &coder{key: key, opts: (&Options{}).withDefaults()}
	cands := make([]mindex.Entry, n)
	for i := range cands {
		ct, err := key.EncryptObject(metric.Object{ID: uint64(i + 1), Vec: vec()})
		if err != nil {
			tb.Fatal(err)
		}
		cands[i] = mindex.Entry{ID: uint64(i + 1), Payload: ct}
	}
	return c, cands, vec()
}

// TestRefineRejectsTamperedCandidate: one forged candidate anywhere in the
// set fails the whole query with an error naming that candidate's entry
// ID and wrapping the cipher's sentinel, and no results are returned.
func TestRefineRejectsTamperedCandidate(t *testing.T) {
	for _, mode := range []secret.Mode{secret.ModeCTRHMAC, secret.ModeGCM} {
		t.Run(mode.String(), func(t *testing.T) {
			c, cands, q := refineFixture(t, mode, 30, 8)
			cases := []struct {
				name   string
				mangle func(ct []byte) []byte
				want   error
			}{
				{"flipped tag", func(ct []byte) []byte { ct[len(ct)-1] ^= 1; return ct }, secret.ErrAuth},
				{"flipped body byte", func(ct []byte) []byte { ct[len(ct)/2] ^= 1; return ct }, secret.ErrAuth},
				{"truncated", func(ct []byte) []byte { return ct[:3] }, secret.ErrFormat},
				{"wrong mode byte", func(ct []byte) []byte { ct[0] ^= 3; return ct }, secret.ErrFormat},
			}
			for _, tc := range cases {
				for _, at := range []int{0, len(cands) / 2, len(cands) - 1} {
					bad := make([]mindex.Entry, len(cands))
					copy(bad, cands)
					bad[at].ID = 7000 + uint64(at)
					bad[at].Payload = tc.mangle(append([]byte(nil), cands[at].Payload...))
					for _, nq := range []Query{
						{Kind: KindApproxKNN, Vec: q, K: 5},
						{Kind: KindRange, Vec: q, Radius: 100},
					} {
						var costs stats.Costs
						rs, err := c.finishQuery(nq, bad, &costs)
						if rs != nil || !errors.Is(err, tc.want) ||
							!strings.Contains(err.Error(), fmt.Sprintf("candidate %d:", bad[at].ID)) {
							t.Fatalf("%s at %d (%v): got %d results, error %v; want none and a %v naming entry %d",
								tc.name, at, nq.Kind, len(rs), err, tc.want, bad[at].ID)
						}
					}
				}
			}
		})
	}
}

// BenchmarkRefine measures one approximate query's client epilogue — batch
// decryption of 400 candidates into the pooled slab, distances, top-10
// selection and compaction — per vector dimension and cipher mode.
func BenchmarkRefine(b *testing.B) {
	for _, dim := range []int{96, 768} {
		for _, mode := range []secret.Mode{secret.ModeCTRHMAC, secret.ModeGCM} {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, strings.TrimPrefix(mode.String(), "aes-")), func(b *testing.B) {
				c, cands, q := refineFixture(b, mode, 400, dim)
				nq := Query{Kind: KindApproxKNN, Vec: q, K: 10}
				var costs stats.Costs
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if _, err := c.finishQuery(nq, cands, &costs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
