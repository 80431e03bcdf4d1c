package main

import (
	"encoding/binary"
	"math/rand"
)

// A reference IDEA (International Data Encryption Algorithm) encryptor,
// written from the cipher's definition and kept apart from the program's
// kernel, so that the http-encrypt checksums are checked against an
// independent computation. ideaTest pins it to the published test vector.

// ideaMulRef is multiplication modulo 2^16+1, where the word 0 stands for
// 2^16.
func ideaMulRef(a, b uint16) uint16 {
	x, y := uint64(a), uint64(b)
	if x == 0 {
		x = 1 << 16
	}
	if y == 0 {
		y = 1 << 16
	}
	return uint16(x * y % 65537) // 2^16 mod 65537 maps back to 0
}

// ideaSubkeys expands a 128-bit key into the 52 encryption subkeys: the key
// supplies eight 16-bit subkeys, is rotated left by 25 bits, and so on.
func ideaSubkeys(key [8]uint16) [52]uint16 {
	var hi, lo uint64
	for i := 0; i < 4; i++ {
		hi = hi<<16 | uint64(key[i])
		lo = lo<<16 | uint64(key[i+4])
	}
	var z [52]uint16
	for n := 0; n < 52; {
		for i := 0; i < 8 && n < 52; i++ {
			if i < 4 {
				z[n] = uint16(hi >> (48 - 16*i))
			} else {
				z[n] = uint16(lo >> (48 - 16*(i-4)))
			}
			n++
		}
		hi, lo = hi<<25|lo>>39, lo<<25|hi>>39
	}
	return z
}

// ideaEncryptBlock encrypts one 64-bit block of four big-endian words.
func ideaEncryptBlock(z *[52]uint16, in [4]uint16) [4]uint16 {
	a, b, c, d := in[0], in[1], in[2], in[3]
	for r := 0; r < 8; r++ {
		k := z[6*r : 6*r+6]
		a = ideaMulRef(a, k[0])
		b += k[1]
		c += k[2]
		d = ideaMulRef(d, k[3])
		s := ideaMulRef(a^c, k[4])
		u := ideaMulRef((b^d)+s, k[5])
		v := s + u
		a, b, c, d = a^u, c^u, b^v, d^v // the middle words cross over
	}
	return [4]uint16{ideaMulRef(a, z[48]), c + z[49], b + z[50], ideaMulRef(d, z[51])}
}

// cryptInput reproduces the program's Crypt input: a 128-bit key and then
// size plaintext bytes, all drawn from math/rand seeded with 136506717.
func cryptInput(size int) (key [8]uint16, plain []byte) {
	rng := rand.New(rand.NewSource(136506717))
	for i := range key {
		key[i] = uint16(rng.Intn(1 << 16))
	}
	plain = make([]byte, size)
	for i := range plain {
		plain[i] = byte(rng.Intn(256))
	}
	return key, plain
}

// referenceChecksum is the byte sum of the IDEA ciphertext of the Crypt
// input of size bytes (rounded up to whole 8-byte blocks, as the kernel
// does). It is what /encrypt?size=size must answer.
func referenceChecksum(size int) int64 {
	if size < 8 {
		size = 8
	}
	size = (size + 7) / 8 * 8
	key, plain := cryptInput(size)
	z := ideaSubkeys(key)
	var sum int64
	for o := 0; o < size; o += 8 {
		var blk [4]uint16
		for i := range blk {
			blk[i] = binary.BigEndian.Uint16(plain[o+2*i:])
		}
		for _, w := range ideaEncryptBlock(&z, blk) {
			sum += int64(w>>8) + int64(w&0xff)
		}
	}
	return sum
}
