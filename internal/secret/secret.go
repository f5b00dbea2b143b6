// Package secret implements the encryption layer of the Encrypted M-Index.
//
// The secret key of an authorized client consists of (1) the pivot set and
// (2) the key of the symmetric cipher used to encrypt metric-space objects —
// exactly the two-part secret of Section 4.2 of the paper. The data owner
// generates the key, uses it to build the outsourced index, and shares it
// with authorized clients; the untrusted server only ever stores ciphertexts
// accompanied by pivot permutations (or pivot-distance vectors) and cannot
// evaluate the distance function because the pivots are not known to it.
//
// Two cipher modes are provided:
//
//   - ModeCTRHMAC: AES-128-CTR with an encrypt-then-MAC HMAC-SHA256 tag.
//     This matches the paper's "standard symmetric cipher AES with 128 bit
//     key" while adding integrity, which any practical outsourced store
//     needs (a malicious server could otherwise tamper with candidates).
//   - ModeGCM: AES-128-GCM, the modern AEAD equivalent, used by the cipher
//     ablation benchmark.
package secret

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/transform"
)

// Mode selects the symmetric cipher construction.
type Mode uint8

// Cipher modes.
const (
	ModeCTRHMAC Mode = 1 // AES-128-CTR + HMAC-SHA256 (encrypt-then-MAC)
	ModeGCM     Mode = 2 // AES-128-GCM
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCTRHMAC:
		return "aes-ctr-hmac"
	case ModeGCM:
		return "aes-gcm"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

const (
	aesKeyLen  = 16 // AES-128, as in the paper
	macKeyLen  = 32
	macTagLen  = 16 // truncated HMAC-SHA256 tag
	ctrIVLen   = aes.BlockSize
	gcmNonceLn = 12
)

// Errors returned by decryption.
var (
	ErrAuth   = errors.New("secret: ciphertext authentication failed")
	ErrFormat = errors.New("secret: malformed ciphertext")
)

// Key is the client secret: the pivot set plus symmetric cipher keys, and
// optionally the distribution-hiding distance transformation (see
// transform.go). It must never be sent to the similarity-cloud server.
//
// The cipher state — the expanded AES key schedule, the GCM AEAD and a pool
// of keyed HMAC hashers — is derived from the raw keys once, in newKey, and
// never serialized: Marshal writes only the raw keys, and both constructors
// (GenerateFrom and Unmarshal) rebuild the state from them. A Key is safe
// for concurrent use and must not be copied.
type Key struct {
	pivots        *pivot.Set
	mode          Mode
	aesKey        []byte
	macKey        []byte
	distTransform *transform.Monotone

	block   cipher.Block // AES-128 key schedule, both modes
	aead    cipher.AEAD  // ModeGCM only
	scratch sync.Pool    // *cipherScratch
}

// cipherScratch is the per-call working set leased from Key.scratch, so
// concurrent callers never share it: a keyed HMAC that is Reset between
// tags rather than rebuilt (hmac.New hashes both pads, two extra SHA-256
// blocks, every time), the buffer its tag is summed into, and plaintext
// scratch reused across a decryption batch.
type cipherScratch struct {
	mac hash.Hash // ModeCTRHMAC only
	sum [sha256.Size]byte
	pt  []byte
}

// newKey validates the raw cipher keys and derives the cipher state. The
// key slices are owned by the Key from here on.
func newKey(pivots *pivot.Set, mode Mode, aesKey, macKey []byte, distTransform *transform.Monotone) (*Key, error) {
	if mode != ModeCTRHMAC && mode != ModeGCM {
		return nil, fmt.Errorf("secret: unknown cipher mode %d", mode)
	}
	if len(aesKey) != aesKeyLen {
		return nil, fmt.Errorf("secret: AES key length %d, want %d", len(aesKey), aesKeyLen)
	}
	if mode == ModeCTRHMAC && len(macKey) != macKeyLen {
		return nil, fmt.Errorf("secret: MAC key length %d, want %d", len(macKey), macKeyLen)
	}
	block, err := aes.NewCipher(aesKey)
	if err != nil {
		return nil, err
	}
	k := &Key{
		pivots:        pivots,
		mode:          mode,
		aesKey:        aesKey,
		macKey:        macKey,
		distTransform: distTransform,
		block:         block,
	}
	if mode == ModeGCM {
		if k.aead, err = cipher.NewGCM(block); err != nil {
			return nil, err
		}
	}
	k.scratch.New = func() any {
		s := new(cipherScratch)
		if mode == ModeCTRHMAC {
			s.mac = hmac.New(sha256.New, macKey)
		}
		return s
	}
	return k, nil
}

// Generate creates a fresh secret key for the given pivot set, drawing
// cipher keys from crypto/rand.
func Generate(pivots *pivot.Set, mode Mode) (*Key, error) {
	return GenerateFrom(rand.Reader, pivots, mode)
}

// GenerateFrom is Generate with an explicit entropy source (tests use a
// deterministic reader).
func GenerateFrom(random io.Reader, pivots *pivot.Set, mode Mode) (*Key, error) {
	if pivots == nil || pivots.N() == 0 {
		return nil, errors.New("secret: key requires a non-empty pivot set")
	}
	aesKey := make([]byte, aesKeyLen)
	if _, err := io.ReadFull(random, aesKey); err != nil {
		return nil, fmt.Errorf("secret: generating AES key: %w", err)
	}
	var macKey []byte
	if mode == ModeCTRHMAC {
		macKey = make([]byte, macKeyLen)
		if _, err := io.ReadFull(random, macKey); err != nil {
			return nil, fmt.Errorf("secret: generating MAC key: %w", err)
		}
	}
	return newKey(pivots, mode, aesKey, macKey, nil)
}

// Pivots exposes the pivot set (client-side use only).
func (k *Key) Pivots() *pivot.Set { return k.pivots }

// Mode returns the cipher mode.
func (k *Key) Mode() Mode { return k.mode }

// objectHeaderLen is the plaintext object header: id uint64 | dim uint32.
const objectHeaderLen = 8 + 4

// EncodeObject serializes a metric object to the plaintext wire form used
// inside ciphertexts: id uint64 | dim uint32 | dim × float32, little endian.
func EncodeObject(o metric.Object) []byte {
	buf := make([]byte, objectHeaderLen+4*len(o.Vec))
	putObject(buf, o)
	return buf
}

// putObject writes EncodeObject's form of o into buf, which must be
// exactly its length.
func putObject(buf []byte, o metric.Object) {
	binary.LittleEndian.PutUint64(buf[0:], o.ID)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(o.Vec)))
	if littleEndianHost {
		copy(buf[objectHeaderLen:], vecBytes(o.Vec))
		return
	}
	for i, f := range o.Vec {
		binary.LittleEndian.PutUint32(buf[objectHeaderLen+4*i:], math.Float32bits(f))
	}
}

// littleEndianHost reports whether float32s sit in memory in the object
// encoding's byte order, which makes encoding and decoding a vector one
// copy instead of a conversion per element (over ten times faster at 768
// dimensions).
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// vecBytes views vec's memory as bytes.
func vecBytes(vec []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), 4*len(vec))
}

// objectHeader parses an encoded object's header, checking the declared
// dimension against the buffer's length.
func objectHeader(buf []byte) (id uint64, dim int, err error) {
	if len(buf) < objectHeaderLen {
		return 0, 0, ErrFormat
	}
	d := binary.LittleEndian.Uint32(buf[8:])
	if uint64(len(buf)) != objectHeaderLen+4*uint64(d) {
		return 0, 0, ErrFormat
	}
	return binary.LittleEndian.Uint64(buf[0:]), int(d), nil
}

// decodeVec fills vec from the little-endian float32s in raw.
func decodeVec(vec []float32, raw []byte) {
	if littleEndianHost {
		copy(vecBytes(vec), raw)
		return
	}
	for i := range vec {
		vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
}

// DecodeObject reverses EncodeObject.
func DecodeObject(buf []byte) (metric.Object, error) {
	id, dim, err := objectHeader(buf)
	if err != nil {
		return metric.Object{}, err
	}
	o := metric.Object{ID: id, Vec: make(metric.Vector, dim)}
	decodeVec(o.Vec, buf[objectHeaderLen:])
	return o, nil
}

func (k *Key) lease() *cipherScratch { return k.scratch.Get().(*cipherScratch) }

func (k *Key) release(s *cipherScratch) { k.scratch.Put(s) }

// tag returns the truncated HMAC-SHA256 tag of msg, summed into s.
func (s *cipherScratch) tag(msg []byte) []byte {
	s.mac.Reset()
	s.mac.Write(msg)
	return s.mac.Sum(s.sum[:0])[:macTagLen]
}

// overhead is the ciphertext length beyond the plaintext: mode byte,
// IV or nonce, and tag.
func (k *Key) overhead() int {
	if k.mode == ModeGCM {
		return 1 + gcmNonceLn + k.aead.Overhead()
	}
	return 1 + ctrIVLen + macTagLen
}

// seal encrypts an n-byte plaintext that fill writes straight into the
// ciphertext's body, which is then encrypted in place: the ciphertext is
// the only buffer allocated (mode byte | IV or nonce | payload | tag).
func (k *Key) seal(n int, fill func(body []byte)) ([]byte, error) {
	out := make([]byte, n+k.overhead())
	out[0] = byte(k.mode)
	switch k.mode {
	case ModeCTRHMAC:
		iv := out[1 : 1+ctrIVLen]
		if _, err := io.ReadFull(rand.Reader, iv); err != nil {
			return nil, err
		}
		bodyEnd := 1 + ctrIVLen + n
		body := out[1+ctrIVLen : bodyEnd]
		fill(body)
		cipher.NewCTR(k.block, iv).XORKeyStream(body, body)
		s := k.lease()
		copy(out[bodyEnd:], s.tag(out[:bodyEnd]))
		k.release(s)
	case ModeGCM:
		nonce := out[1 : 1+gcmNonceLn]
		if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
			return nil, err
		}
		body := out[1+gcmNonceLn : 1+gcmNonceLn+n]
		fill(body)
		k.aead.Seal(out[:1+gcmNonceLn], nonce, body, nil)
	}
	return out, nil
}

// open authenticates ct and decrypts its payload into dst's storage
// (reallocated only when too small), returning the plaintext. The tag is
// verified in constant time before anything is decrypted; GCM's AEAD
// likewise releases no plaintext on a tag mismatch.
func (k *Key) open(s *cipherScratch, ct, dst []byte) ([]byte, error) {
	if len(ct) < 1 {
		return nil, ErrFormat
	}
	if Mode(ct[0]) != k.mode {
		return nil, fmt.Errorf("%w: ciphertext mode %d, key mode %d", ErrFormat, ct[0], k.mode)
	}
	if k.mode == ModeGCM {
		if len(ct) < 1+gcmNonceLn {
			return nil, ErrFormat
		}
		pt, err := k.aead.Open(dst[:0], ct[1:1+gcmNonceLn], ct[1+gcmNonceLn:], nil)
		if err != nil {
			return nil, ErrAuth
		}
		return pt, nil
	}
	if len(ct) < 1+ctrIVLen+macTagLen {
		return nil, ErrFormat
	}
	bodyEnd := len(ct) - macTagLen
	if !hmac.Equal(s.tag(ct[:bodyEnd]), ct[bodyEnd:]) {
		return nil, ErrAuth
	}
	body := ct[1+ctrIVLen : bodyEnd]
	pt := slices.Grow(dst[:0], len(body))[:len(body)]
	cipher.NewCTR(k.block, ct[1:1+ctrIVLen]).XORKeyStream(pt, body)
	return pt, nil
}

// Seal encrypts an arbitrary plaintext under the key, producing a
// self-contained ciphertext (mode byte | nonce/IV | payload | tag).
func (k *Key) Seal(plaintext []byte) ([]byte, error) {
	return k.seal(len(plaintext), func(body []byte) { copy(body, plaintext) })
}

// Open decrypts a ciphertext produced by Seal, verifying integrity.
func (k *Key) Open(ct []byte) ([]byte, error) {
	s := k.lease()
	defer k.release(s)
	return k.open(s, ct, nil)
}

// EncryptObject serializes and encrypts a metric object — the client side of
// the paper's Algorithm 1, line 8 ("store encrypted data only").
func (k *Key) EncryptObject(o metric.Object) ([]byte, error) {
	return k.seal(objectHeaderLen+4*len(o.Vec), func(body []byte) { putObject(body, o) })
}

// DecryptObject decrypts and deserializes a candidate object received from
// the server — Algorithm 2, line 13.
func (k *Key) DecryptObject(ct []byte) (metric.Object, error) {
	s := k.lease()
	defer k.release(s)
	pt, err := k.open(s, ct, s.pt)
	if err != nil {
		return metric.Object{}, err
	}
	s.pt = pt
	return DecodeObject(pt)
}

// BatchError names the ciphertext of an OpenObjects batch that failed.
type BatchError struct {
	Index int   // position of the ciphertext in the batch
	Err   error // wraps ErrAuth or ErrFormat
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("secret: batch ciphertext %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// OpenObjects decrypts a batch of object ciphertexts — Algorithm 2, line
// 13, for a whole candidate set. Per ciphertext it verifies the tag in
// constant time before decrypting anything, decrypts into plaintext
// scratch reused across the batch, checks the declared dimension against
// the plaintext length, and decodes the vector onto the end of slab.
// dst[i] receives ciphertext i's ID and a capacity-capped window of the
// returned slab, which is grown at most once, up front, from the
// ciphertext lengths. The caller owns the slab and may pass it back for
// the next batch once nothing refers to dst's vectors any more.
//
// dst must hold at least len(cts) objects. A failure returns a *BatchError
// naming the ciphertext; dst's contents are then unspecified.
func (k *Key) OpenObjects(cts [][]byte, dst []metric.Object, slab []float32) ([]float32, error) {
	if len(dst) < len(cts) {
		return slab, fmt.Errorf("secret: %d destination objects for %d ciphertexts", len(dst), len(cts))
	}
	need, over := 0, k.overhead()+objectHeaderLen
	for _, ct := range cts {
		if len(ct) > over {
			need += (len(ct) - over) / 4
		}
	}
	slab = slices.Grow(slab, need)
	s := k.lease()
	defer k.release(s)
	for i, ct := range cts {
		pt, err := k.open(s, ct, s.pt)
		if err != nil {
			return slab, &BatchError{Index: i, Err: err}
		}
		s.pt = pt
		id, dim, err := objectHeader(pt)
		if err != nil {
			return slab, &BatchError{Index: i, Err: err}
		}
		at := len(slab)
		slab = slab[:at+dim]
		vec := slab[at : at+dim : at+dim]
		decodeVec(vec, pt[objectHeaderLen:])
		dst[i] = metric.Object{ID: id, Vec: vec}
	}
	return slab, nil
}
