// The byte-wise FIPS-197 cipher the table-driven rounds in aes.go
// replaced, kept as their reference: SubBytes, ShiftRows, MixColumns and
// AddRoundKey as separate byte passes over the state, key expansion on
// bytes. TestAESTablesMatchBytewise checks the two bit for bit.

package rng

import (
	"math/rand"
	"testing"
)

// aesState is the 16-byte AES state, column-major as in FIPS-197:
// s[r + 4*c] is row r, column c.
type aesState [16]byte

// refBlock is the byte-wise AES-128 the table-driven block must match.
type refBlock struct {
	rounds int
	rk     [11][16]byte // round keys 0..rounds (up to 10 full rounds + whitening)
}

// newRefBlock expands the 16-byte key for the given number of rounds.
func newRefBlock(key [16]byte, rounds int) *refBlock {
	if rounds < 1 {
		rounds = 1
	}
	if rounds > 10 {
		rounds = 10
	}
	b := &refBlock{rounds: rounds}
	// Key expansion: 4*(rounds+1) words.
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	for i := 4; i < 4*(10+1); i++ {
		t := w[i-1]
		if i%4 == 0 {
			// RotWord + SubWord + Rcon
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon[i/4]
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	for r := 0; r <= 10; r++ {
		for c := 0; c < 4; c++ {
			copy(b.rk[r][4*c:4*c+4], w[4*r+c][:])
		}
	}
	return b
}

func xtime(a byte) byte {
	hi := a & 0x80
	a <<= 1
	if hi != 0 {
		a ^= 0x1b
	}
	return a
}

func subBytes(s *aesState) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func shiftRows(s *aesState) {
	// state layout: s[4*c + r] holds row r of column c in our flattened
	// representation (column-major 4-byte groups).
	// Row 1: rotate left by 1; row 2 by 2; row 3 by 3.
	var t aesState
	copy(t[:], s[:])
	for c := 0; c < 4; c++ {
		for r := 1; r < 4; r++ {
			s[4*c+r] = t[4*((c+r)%4)+r]
		}
	}
}

func mixColumns(s *aesState) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

func addRoundKey(s *aesState, rk *[16]byte) {
	for i := range s {
		s[i] ^= rk[i]
	}
}

// encrypt runs the configured number of rounds over one block. With
// rounds == 10 this is standard AES-128 (final round skips MixColumns).
func (b *refBlock) encrypt(in [16]byte) [16]byte {
	s := aesState(in)
	addRoundKey(&s, &b.rk[0])
	for r := 1; r < b.rounds; r++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, &b.rk[r])
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, &b.rk[b.rounds])
	return [16]byte(s)
}

// TestAESTablesMatchBytewise checks the table-driven cipher against the
// byte-wise reference at every round count 1..10, over seeded random
// (key, block) pairs: the rounds are re-derived, not re-keyed, so any
// table or ShiftRows indexing slip shows at the round count it breaks.
func TestAESTablesMatchBytewise(t *testing.T) {
	const pairs = 10000
	r := rand.New(rand.NewSource(0xae5))
	for rounds := 1; rounds <= 10; rounds++ {
		for i := 0; i < pairs; i++ {
			var key, in [16]byte
			r.Read(key[:])
			r.Read(in[:])
			got := newBlock(key, rounds).encrypt(in)
			want := newRefBlock(key, rounds).encrypt(in)
			if got != want {
				t.Fatalf("rounds=%d key=%x in=%x: tables %x, byte-wise %x", rounds, key, in, got, want)
			}
		}
	}
}
