package security

import (
	"crypto/aes"
	"encoding/hex"
	"testing"
)

// The CMAC known answers: RFC 4493 §4 under AES-128 and NIST SP 800-38B
// Appendix D.3 under AES-256, each at message lengths 0 and 40 (a
// partial last block, masked with K2) and 16 and 64 (a whole one, masked
// with K1).
func TestCMACKnownAnswers(t *testing.T) {
	const msg = "6bc1bee22e409f96e93d7e117393172a" + "ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" + "f69f2445df4f9b17ad2b417be66c3710"
	for _, v := range []struct {
		name, key string
		tags      map[int]string
	}{
		{"RFC 4493 AES-128", "2b7e151628aed2a6abf7158809cf4f3c", map[int]string{
			0:  "bb1d6929e95937287fa37d129b756746",
			16: "070a16b46b4d4144f79bdd9dd04a287c",
			40: "dfa66747de9ae63030ca32611497c827",
			64: "51f0bebf7e3b9d92fc49741779363cfe",
		}},
		{"SP 800-38B AES-256", "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4", map[int]string{
			0:  "028962f61b7bf89efc6b551f4667d983",
			16: "28a7023f452e8f82bd4bf28d8c37c35c",
			40: "aaf3d8f1de5640c232f5b169b9c911e6",
			64: "e1992190549f6ed5696a2c056c315410",
		}},
	} {
		block, err := aes.NewCipher(unhex(t, v.key))
		if err != nil {
			t.Fatal(err)
		}
		m := newCMAC(block)
		for mlen, want := range v.tags {
			tag := make([]byte, aes.BlockSize)
			m.sum(tag, unhex(t, msg)[:mlen])
			if got := hex.EncodeToString(tag); got != want {
				t.Errorf("%s, Mlen %d: tag %s, want %s", v.name, mlen, got, want)
			}
		}
	}
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
