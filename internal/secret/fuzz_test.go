package secret

import (
	"bytes"
	"errors"
	"testing"

	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

func fuzzKey(f *testing.F) *Key {
	f.Helper()
	pv := pivot.NewSet(metric.L1{}, []metric.Vector{{1, 2}, {3, 4}})
	k, err := Generate(pv, ModeCTRHMAC)
	if err != nil {
		f.Fatal(err)
	}
	return k
}

// FuzzUnmarshalKey: hostile key blobs must never panic and never yield a
// key that disagrees with its own re-marshaling.
func FuzzUnmarshalKey(f *testing.F) {
	k := fuzzKey(f)
	blob, err := k.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add(blob[:len(blob)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatalf("unmarshaled key fails to marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("key marshal round trip mismatch")
		}
	})
}

// FuzzOpen: hostile ciphertexts must never panic and never authenticate.
func FuzzOpen(f *testing.F) {
	k := fuzzKey(f)
	ct, err := k.Seal([]byte("seed plaintext"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ct)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := k.Open(data)
		if err != nil {
			return
		}
		// The only inputs that may authenticate are genuine ciphertexts; the
		// fuzzer mutating our seed must practically never land here unless
		// the bytes are the seed itself.
		if !bytes.Equal(data, ct) && len(pt) == len("seed plaintext") && bytes.Equal(pt, []byte("seed plaintext")) {
			t.Fatal("forged ciphertext authenticated")
		}
	})
}

// FuzzDecodeObject: malformed object encodings must never panic.
func FuzzDecodeObject(f *testing.F) {
	f.Add(EncodeObject(metric.Object{ID: 1, Vec: metric.Vector{1, 2, 3}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := DecodeObject(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeObject(o), data) {
			t.Fatal("object codec round trip mismatch")
		}
	})
}

// FuzzOpenObjects: a hostile ciphertext anywhere in a batch must never
// panic, and under either cipher mode the batch call must agree with
// per-object Open + DecodeObject — the same objects, or a failure at the
// same index with the same sentinel.
func FuzzOpenObjects(f *testing.F) {
	ctr := fuzzKey(f)
	gcm, err := Generate(ctr.Pivots(), ModeGCM)
	if err != nil {
		f.Fatal(err)
	}
	keys := []*Key{ctr, gcm}
	genuine := make([][][]byte, len(keys))
	for ki, k := range keys {
		for i, v := range []metric.Vector{{1, 2, 3}, {}, {-4}} {
			ct, err := k.EncryptObject(metric.Object{ID: uint64(i + 1), Vec: v})
			if err != nil {
				f.Fatal(err)
			}
			genuine[ki] = append(genuine[ki], ct)
		}
	}
	f.Add(genuine[0][0], uint8(0))
	f.Add(genuine[1][1], uint8(1))
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{byte(ModeGCM)}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, at uint8) {
		for ki, k := range keys {
			cts := make([][]byte, len(genuine[ki]))
			copy(cts, genuine[ki])
			cts[int(at)%len(cts)] = data
			want, wantAt, wantErr := openOneByOne(k, cts)
			dst := make([]metric.Object, len(cts))
			_, err := k.OpenObjects(cts, dst, nil)
			if wantErr != nil {
				var be *BatchError
				if !errors.As(err, &be) || be.Index != wantAt {
					t.Fatalf("%v: per-object open fails at %d (%v); batch: %v", k.Mode(), wantAt, wantErr, err)
				}
				for _, sentinel := range []error{ErrAuth, ErrFormat} {
					if errors.Is(wantErr, sentinel) != errors.Is(err, sentinel) {
						t.Fatalf("%v: per-object error %v, batch error %v", k.Mode(), wantErr, err)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: per-object open succeeds, batch fails: %v", k.Mode(), err)
			}
			for i := range want {
				if !sameObject(dst[i], want[i]) {
					t.Fatalf("%v: object %d: batch %+v, per-object %+v", k.Mode(), i, dst[i], want[i])
				}
			}
		}
	})
}
