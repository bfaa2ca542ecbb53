package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder. It must never
// panic; a frame it accepts must re-encode to exactly the input bytes; and
// that frame with any one byte changed must be rejected, either by the
// decoder or, for the kind bytes (which the CRC does not cover), by the kind
// check ReadFile makes against the caller's expected kind.
func FuzzDecodeFrame(f *testing.F) {
	dir := f.TempDir()
	for i, seed := range []struct {
		kind    string
		payload []byte
	}{
		{KindModel, []byte("model payload")},
		{KindTrainer, []byte{0, 1, 2, 3, 0xff}},
		{KindTrainSet, nil},
	} {
		path := filepath.Join(dir, string(rune('a'+i))+".ckpt")
		if err := WriteFileAtomic(path, seed.kind, seed.payload); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(fileMagic))

	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, kind, err := decodeFrame(raw)
		if err != nil {
			return
		}
		hdr := frameHeader(kind, payload)
		if re := append(hdr[:], payload...); !bytes.Equal(re, raw) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", re, raw)
		}
		// Every header byte, then payload bytes at a stride that keeps the
		// check linear in the input size.
		stride := max(1, (len(raw)-headerSize)/256)
		for i := 0; i < len(raw); i++ {
			if i >= headerSize && (i-headerSize)%stride != 0 {
				continue
			}
			for _, flip := range []byte{0x01, 0xff} {
				mut := bytes.Clone(raw)
				mut[i] ^= flip
				if _, k, err := decodeFrame(mut); err == nil && k == kind {
					t.Fatalf("byte %d ^ %#x still decodes as a valid %q frame", i, flip, kind)
				}
			}
		}
	})
}
