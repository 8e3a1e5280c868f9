package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenBytes pins the on-disk encoding of a snapshot and of a cached
// placement result: files written by earlier builds must stay readable, so
// any change to these bytes is a format change that needs a new version.
func TestGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		size int
		sha  string
	}{
		{"snapshot", Encode(sampleSnapshot()), 672, "953057c1dadb6488d6a362e3de708b47c80da64e3492e6b44ec4af33fd867a63"},
		{"result", EncodeResult(sampleResult()), 176, "d9bb1aecaa21344266cf9705e1da0378197e09dbba80776d50e3b25eb95f7e91"},
	} {
		sum := sha256.Sum256(tc.data)
		if len(tc.data) != tc.size || hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("%s: %d bytes, sha256 %x; want %d bytes, sha256 %s", tc.name, len(tc.data), sum, tc.size, tc.sha)
		}
	}
}
