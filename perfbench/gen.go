package main

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// valueLen is the size of every value the benchmark writes.
const valueLen = 64

// keyName is the store key of key index i.
func keyName(i int) string { return fmt.Sprintf("k%07d", i) }

func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyName(i)
	}
	return keys
}

// A value is self-describing: 8 hex digits of the key index, 8 of the
// version, then 48 bytes of padding derived from (seed, key, version).
// checkValue can therefore verify any value read back without a copy of
// what was written, and a value of another key, another seed or a
// flipped byte fails.
func makeValue(seed uint64, key int, ver uint32) string {
	b := make([]byte, valueLen)
	fmt.Appendf(b[:0], "%08x%08x", uint32(key), ver)
	fillPad(b[16:], seed, key, ver)
	return string(b)
}

func fillPad(dst []byte, seed uint64, key int, ver uint32) {
	h := seed ^ uint64(key)<<32 ^ uint64(ver)
	for i := range dst {
		if i%8 == 0 {
			h = splitmix(h)
		}
		dst[i] = 'a' + byte((h>>(uint(i%8)*8))%26)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// parseValue checks that v is an intact value of key and returns its
// version.
func parseValue(seed uint64, key int, v string) (uint32, error) {
	if len(v) != valueLen {
		return 0, fmt.Errorf("key %d: value length %d, want %d", key, len(v), valueLen)
	}
	k, ok1 := parseHex(v[:8])
	ver, ok2 := parseHex(v[8:16])
	if !ok1 || !ok2 || int(k) != key {
		return 0, fmt.Errorf("key %d: value %.16q names another key or is corrupt", key, v)
	}
	var pad [valueLen - 16]byte
	fillPad(pad[:], seed, key, ver)
	if string(pad[:]) != v[16:] {
		return 0, fmt.Errorf("key %d: value version %d has corrupt padding", key, ver)
	}
	return ver, nil
}

func parseHex(s string) (uint32, bool) {
	var x uint32
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return x, true
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, theta < 1
// (the YCSB generator of Gray et al.; math/rand's Zipf needs s > 1).
type zipf struct {
	n                        int
	theta, alpha, zetan, eta float64
	halfPowTheta             float64
}

func newZipf(n int, theta float64) *zipf {
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipf{
		n: n, theta: theta, zetan: zetan,
		alpha:        1 / (1 - theta),
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// newRand derives an independent stream from the run seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, splitmix(stream+1)))
}
