package secret

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simcloud/internal/metric"
)

var bothModes = []Mode{ModeCTRHMAC, ModeGCM}

// randomObjects draws objects of mixed dimension, including the empty
// vector.
func randomObjects(rng *rand.Rand, n int) []metric.Object {
	objs := make([]metric.Object, n)
	for i := range objs {
		v := make(metric.Vector, rng.IntN(20))
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		objs[i] = metric.Object{ID: rng.Uint64(), Vec: v}
	}
	return objs
}

func encryptAll(t *testing.T, k *Key, objs []metric.Object) [][]byte {
	t.Helper()
	cts := make([][]byte, len(objs))
	for i, o := range objs {
		ct, err := k.EncryptObject(o)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	return cts
}

// sameObject compares IDs and vectors bit for bit.
func sameObject(a, b metric.Object) bool {
	if a.ID != b.ID || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if math.Float32bits(a.Vec[i]) != math.Float32bits(b.Vec[i]) {
			return false
		}
	}
	return true
}

// openOneByOne is the reference OpenObjects must agree with: per-object
// Open and DecodeObject, failing at the first bad ciphertext.
func openOneByOne(k *Key, cts [][]byte) ([]metric.Object, int, error) {
	out := make([]metric.Object, len(cts))
	for i, ct := range cts {
		pt, err := k.Open(ct)
		if err == nil {
			out[i], err = DecodeObject(pt)
		}
		if err != nil {
			return nil, i, err
		}
	}
	return out, -1, nil
}

// TestOpenObjectsMatchesPerObject: the batch call returns exactly what
// per-object Open + DecodeObject return, and every vector is a
// capacity-capped window, so appending to one cannot clobber the next.
func TestOpenObjectsMatchesPerObject(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			k := testKey(t, mode)
			rng := rand.New(rand.NewPCG(11, uint64(mode)))
			objs := randomObjects(rng, 50)
			cts := encryptAll(t, k, objs)
			want, _, err := openOneByOne(k, cts)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]metric.Object, len(cts))
			slab := make([]float32, 3, 8) // pre-existing contents must survive
			slab, err = k.OpenObjects(cts, dst, slab)
			if err != nil {
				t.Fatal(err)
			}
			total := 3
			for i := range want {
				if !sameObject(dst[i], want[i]) || !sameObject(dst[i], objs[i]) {
					t.Fatalf("object %d: batch %+v, per-object %+v", i, dst[i], want[i])
				}
				if cap(dst[i].Vec) != len(dst[i].Vec) {
					t.Fatalf("object %d: vector capacity %d exceeds its length %d", i, cap(dst[i].Vec), len(dst[i].Vec))
				}
				total += len(want[i].Vec)
			}
			if len(slab) != total {
				t.Fatalf("slab length %d, want %d", len(slab), total)
			}
			_ = append(dst[0].Vec, 99)
			if !sameObject(dst[1], want[1]) {
				t.Fatal("appending to one vector changed the next")
			}
		})
	}
}

// TestOpenObjectsRejectsHostile: every tampered or malformed ciphertext is
// refused — first, in the middle or last in its batch — with the sentinel
// its defect calls for and the index naming it.
func TestOpenObjectsRejectsHostile(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			k := testKey(t, mode)
			other := ModeGCM
			if mode == ModeGCM {
				other = ModeCTRHMAC
			}
			// An authentic ciphertext whose plaintext declares one float more
			// than it carries.
			lying := EncodeObject(metric.Object{ID: 5, Vec: metric.Vector{1, 2}})
			binary.LittleEndian.PutUint32(lying[8:], 3)
			lyingCT, err := k.Seal(lying)
			if err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				name   string
				mangle func(ct []byte) []byte
				want   error
			}{
				{"flipped tag", func(ct []byte) []byte { ct[len(ct)-1] ^= 1; return ct }, ErrAuth},
				{"flipped body byte", func(ct []byte) []byte { ct[len(ct)/2] ^= 1; return ct }, ErrAuth},
				{"truncated by one byte", func(ct []byte) []byte { return ct[:len(ct)-1] }, ErrAuth},
				{"truncated below the header", func(ct []byte) []byte { return ct[:5] }, ErrFormat},
				{"empty", func([]byte) []byte { return nil }, ErrFormat},
				{"wrong mode byte", func(ct []byte) []byte { ct[0] = byte(other); return ct }, ErrFormat},
				{"dim/length mismatch", func([]byte) []byte { return bytes.Clone(lyingCT) }, ErrFormat},
			}
			rng := rand.New(rand.NewPCG(12, uint64(mode)))
			objs := randomObjects(rng, 9)
			for _, c := range cases {
				for _, at := range []int{0, len(objs) / 2, len(objs) - 1} {
					cts := encryptAll(t, k, objs)
					cts[at] = c.mangle(cts[at])
					_, _, refErr := openOneByOne(k, cts)
					if !errors.Is(refErr, c.want) {
						t.Fatalf("%s at %d: per-object reference says %v, want %v", c.name, at, refErr, c.want)
					}
					_, err := k.OpenObjects(cts, make([]metric.Object, len(cts)), nil)
					var be *BatchError
					if !errors.As(err, &be) || be.Index != at || !errors.Is(err, c.want) {
						t.Fatalf("%s at %d: got %v, want a BatchError at %d wrapping %v", c.name, at, err, at, c.want)
					}
				}
			}
		})
	}
}

func TestOpenObjectsNeedsRoomForEveryObject(t *testing.T) {
	k := testKey(t, ModeGCM)
	cts := encryptAll(t, k, []metric.Object{{ID: 1, Vec: metric.Vector{1}}, {ID: 2}})
	if _, err := k.OpenObjects(cts, make([]metric.Object, 1), nil); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestUnmarshalCopiesKeyMaterial: a caller that zeroes or reuses the key
// blob after Unmarshal must not change the key.
func TestUnmarshalCopiesKeyMaterial(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			k := testKey(t, mode)
			blob, err := k.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			clear(blob)
			o := metric.Object{ID: 9, Vec: metric.Vector{1, -2, 3}}
			ct, err := k.EncryptObject(o)
			if err != nil {
				t.Fatal(err)
			}
			back, err := got.DecryptObject(ct)
			if err != nil || !sameObject(back, o) {
				t.Fatalf("unmarshaled key no longer decrypts after the blob was zeroed: %v", err)
			}
			ct, err = got.EncryptObject(o)
			if err != nil {
				t.Fatal(err)
			}
			if back, err = k.DecryptObject(ct); err != nil || !sameObject(back, o) {
				t.Fatalf("original key cannot open what the unmarshaled key sealed: %v", err)
			}
			again, err := got.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			orig, _ := k.Marshal()
			if !bytes.Equal(again, orig) {
				t.Fatal("unmarshaled key marshals differently after the blob was zeroed")
			}
		})
	}
}

// goldenFile is a key and object ciphertexts sealed under it by an earlier
// version of this package (testdata/golden_<mode>.json): the ciphertext
// format is a stored format, and every release must keep opening them.
type goldenFile struct {
	Key     []byte `json:"key"`
	Objects []struct {
		ID  uint64        `json:"id"`
		Vec metric.Vector `json:"vec"`
		CT  []byte        `json:"ct"`
	} `json:"objects"`
}

func TestGoldenCiphertextsStillDecrypt(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "golden_"+mode.String()+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var g goldenFile
			if err := json.Unmarshal(raw, &g); err != nil {
				t.Fatal(err)
			}
			k, err := Unmarshal(g.Key)
			if err != nil {
				t.Fatal(err)
			}
			if k.Mode() != mode {
				t.Fatalf("golden key mode %v", k.Mode())
			}
			cts := make([][]byte, len(g.Objects))
			for i, o := range g.Objects {
				want := metric.Object{ID: o.ID, Vec: o.Vec}
				got, err := k.DecryptObject(o.CT)
				if err != nil || !sameObject(got, want) {
					t.Fatalf("golden object %d: DecryptObject = %+v, %v", o.ID, got, err)
				}
				cts[i] = o.CT
			}
			dst := make([]metric.Object, len(cts))
			if _, err := k.OpenObjects(cts, dst, nil); err != nil {
				t.Fatal(err)
			}
			for i, o := range g.Objects {
				if !sameObject(dst[i], metric.Object{ID: o.ID, Vec: o.Vec}) {
					t.Fatalf("golden object %d: OpenObjects = %+v", o.ID, dst[i])
				}
			}
		})
	}
}

// benchObjects returns n random dim-dimensional objects and their
// ciphertexts under k.
func benchObjects(b *testing.B, k *Key, n, dim int) ([]metric.Object, [][]byte) {
	b.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), uint64(dim)))
	objs := make([]metric.Object, n)
	cts := make([][]byte, n)
	for i := range objs {
		v := make(metric.Vector, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		objs[i] = metric.Object{ID: uint64(i), Vec: v}
		ct, err := k.EncryptObject(objs[i])
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	return objs, cts
}

// benchCiphers runs fn once per (dimension, cipher mode) pair, named like
// BenchmarkRefine's sub-benchmarks.
func benchCiphers(b *testing.B, fn func(b *testing.B, k *Key, dim int)) {
	for _, dim := range []int{96, 768} {
		for _, mode := range bothModes {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, strings.TrimPrefix(mode.String(), "aes-")), func(b *testing.B) {
				k, err := Generate(testPivots(b, 2, 2), mode)
				if err != nil {
					b.Fatal(err)
				}
				fn(b, k, dim)
			})
		}
	}
}

func BenchmarkEncryptObject(b *testing.B) {
	benchCiphers(b, func(b *testing.B, k *Key, dim int) {
		objs, _ := benchObjects(b, k, 64, dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if _, err := k.EncryptObject(objs[i%len(objs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecryptObject(b *testing.B) {
	benchCiphers(b, func(b *testing.B, k *Key, dim int) {
		_, cts := benchObjects(b, k, 64, dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if _, err := k.DecryptObject(cts[i%len(cts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOpenObjects reports per-object cost of a 400-ciphertext batch
// (one op = one object) so it reads beside BenchmarkDecryptObject.
func BenchmarkOpenObjects(b *testing.B) {
	benchCiphers(b, func(b *testing.B, k *Key, dim int) {
		const batch = 400
		_, cts := benchObjects(b, k, batch, dim)
		dst := make([]metric.Object, batch)
		var slab []float32
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			var err error
			if slab, err = k.OpenObjects(cts[:min(batch, b.N-done)], dst, slab[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
