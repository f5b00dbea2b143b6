package secret

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

func testPivots(t testing.TB, n, dim int) *pivot.Set {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, uint64(n)))
	vecs := make([]metric.Vector, n)
	for i := range vecs {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = v
	}
	return pivot.NewSet(metric.L1{}, vecs)
}

func testKey(t *testing.T, mode Mode) *Key {
	t.Helper()
	k, err := Generate(testPivots(t, 8, 4), mode)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestObjectCodecRoundTrip(t *testing.T) {
	o := metric.Object{ID: 42, Vec: metric.Vector{1.5, -2.25, 0, 3e7}}
	got, err := DecodeObject(EncodeObject(o))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != o.ID || !got.Vec.Equal(o.Vec) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestQuickObjectCodec(t *testing.T) {
	f := func(id uint64, raw []float32) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		o := metric.Object{ID: id, Vec: raw}
		got, err := DecodeObject(EncodeObject(o))
		if err != nil {
			return false
		}
		if got.ID != id || len(got.Vec) != len(raw) {
			return false
		}
		return bytes.Equal(EncodeObject(got), EncodeObject(o))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeObjectRejectsMalformed(t *testing.T) {
	for _, buf := range [][]byte{
		nil,
		{1, 2, 3},
		append(EncodeObject(metric.Object{ID: 1, Vec: metric.Vector{1}}), 0), // trailing
		EncodeObject(metric.Object{ID: 1, Vec: metric.Vector{1, 2}})[:13],    // truncated
	} {
		if _, err := DecodeObject(buf); err == nil {
			t.Fatalf("malformed buffer %v accepted", buf)
		}
	}
}

func TestSealOpenBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeCTRHMAC, ModeGCM} {
		t.Run(mode.String(), func(t *testing.T) {
			k := testKey(t, mode)
			for _, pt := range [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 1000)} {
				ct, err := k.Seal(pt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := k.Open(ct)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, pt) {
					t.Fatalf("round trip mismatch for %d bytes", len(pt))
				}
			}
		})
	}
}

func TestCiphertextsAreRandomized(t *testing.T) {
	k := testKey(t, ModeCTRHMAC)
	pt := []byte("same plaintext twice")
	a, _ := k.Seal(pt)
	b, _ := k.Seal(pt)
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions of the same plaintext are identical (IV reuse)")
	}
}

func TestTamperingDetected(t *testing.T) {
	for _, mode := range []Mode{ModeCTRHMAC, ModeGCM} {
		t.Run(mode.String(), func(t *testing.T) {
			k := testKey(t, mode)
			ct, err := k.Seal([]byte("candidate object payload"))
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{1, len(ct) / 2, len(ct) - 1} {
				mangled := bytes.Clone(ct)
				mangled[i] ^= 0x01
				if _, err := k.Open(mangled); err == nil {
					t.Fatalf("tampered byte %d accepted", i)
				}
			}
			// Truncation must fail too.
			if _, err := k.Open(ct[:len(ct)-1]); err == nil {
				t.Fatal("truncated ciphertext accepted")
			}
			if _, err := k.Open(nil); err == nil {
				t.Fatal("empty ciphertext accepted")
			}
		})
	}
}

func TestWrongKeyFails(t *testing.T) {
	k1 := testKey(t, ModeCTRHMAC)
	k2 := testKey(t, ModeCTRHMAC)
	ct, _ := k1.Seal([]byte("secret"))
	if _, err := k2.Open(ct); err == nil {
		t.Fatal("unauthorized key decrypted the ciphertext")
	}
}

func TestModeMismatchRejected(t *testing.T) {
	ctr := testKey(t, ModeCTRHMAC)
	gcm := testKey(t, ModeGCM)
	ct, _ := ctr.Seal([]byte("x"))
	if _, err := gcm.Open(ct); err == nil {
		t.Fatal("GCM key opened CTR ciphertext")
	}
}

func TestEncryptDecryptObject(t *testing.T) {
	for _, mode := range []Mode{ModeCTRHMAC, ModeGCM} {
		k := testKey(t, mode)
		o := metric.Object{ID: 7, Vec: metric.Vector{3.5, -1, 2}}
		ct, err := k.EncryptObject(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.DecryptObject(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != 7 || !got.Vec.Equal(o.Vec) {
			t.Fatalf("object round trip mismatch: %+v", got)
		}
		// The ciphertext must not contain the plaintext vector encoding.
		if bytes.Contains(ct, EncodeObject(o)[8:]) {
			t.Fatal("ciphertext leaks plaintext")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(nil, ModeCTRHMAC); err == nil {
		t.Fatal("nil pivots accepted")
	}
	if _, err := Generate(pivot.NewSet(metric.L1{}, nil), ModeCTRHMAC); err == nil {
		t.Fatal("empty pivots accepted")
	}
	if _, err := Generate(testPivots(t, 2, 2), Mode(99)); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestKeyMarshalRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeCTRHMAC, ModeGCM} {
		t.Run(mode.String(), func(t *testing.T) {
			k, err := Generate(testPivots(t, 5, 3), mode)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := k.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mode() != mode {
				t.Fatalf("mode = %v", got.Mode())
			}
			if got.Pivots().N() != 5 || got.Pivots().Dist.Name() != "L1" {
				t.Fatalf("pivots = %d under %s", got.Pivots().N(), got.Pivots().Dist.Name())
			}
			for i := range k.pivots.Pivots {
				if !got.pivots.Pivots[i].Equal(k.pivots.Pivots[i]) {
					t.Fatalf("pivot %d mismatch", i)
				}
			}
			// The unmarshaled key must decrypt what the original sealed.
			ct, _ := k.Seal([]byte("cross-key payload"))
			pt, err := got.Open(ct)
			if err != nil || string(pt) != "cross-key payload" {
				t.Fatalf("unmarshaled key cannot open: %v", err)
			}
		})
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	k := testKey(t, ModeCTRHMAC)
	blob, _ := k.Marshal()
	cases := [][]byte{
		nil,
		[]byte("short"),
		blob[:len(blob)-3],                      // truncated pivots
		append(bytes.Clone(blob), 1, 2, 3),      // trailing bytes
		append([]byte("WRONGMAG"), blob[8:]...), // bad magic
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("case %d: garbage key accepted", i)
		}
	}
}

func TestUnmarshalRejectsBadMode(t *testing.T) {
	k := testKey(t, ModeCTRHMAC)
	blob, _ := k.Marshal()
	blob[8] = 99 // mode byte follows the magic
	if _, err := Unmarshal(blob); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestQuickSealOpenRoundTrip(t *testing.T) {
	k := testKey(t, ModeGCM)
	f := func(pt []byte) bool {
		if len(pt) > 4096 {
			pt = pt[:4096]
		}
		ct, err := k.Seal(pt)
		if err != nil {
			return false
		}
		got, err := k.Open(ct)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
