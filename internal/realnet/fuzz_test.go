package realnet

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/svm"
	"repro/internal/wire"
)

// fuzzFrameBudget is the readFrame budget FuzzReadFrame runs under: small
// enough that the fuzzer reaches it, large enough for the seed frames.
const fuzzFrameBudget = 4 << 10

// fuzzSeedSet is a small honest model set whose encodings seed the
// decoder fuzz targets (alongside the committed files under
// testdata/fuzz). The seed helpers fail the target if their encoding does
// not decode, so the fuzzers never start from rejects only.
func fuzzSeedSet() *ModelSet {
	w := make([]float64, 32)
	w[1], w[7], w[30] = 0.5, -1.25, 2.0
	return &ModelSet{
		Models: map[string]*svm.LinearModel{
			"music":  {W: w, Bias: 0.1},
			"travel": {W: []float64{-0.75, 0, 0.25}, Bias: -0.3},
		},
		Platt: map[string]svm.PlattParams{
			"music":  {A: -1.2, B: 0.05},
			"travel": {A: -0.8, B: -0.1},
		},
		Accuracy: map[string]float64{"music": 0.9, "travel": 0.75},
	}
}

func fuzzSeedGeneration(f *testing.F) []byte {
	f.Helper()
	payload, err := encodeGeneration(Generation{Seq: 7, Origin: "127.0.0.1:7101", Set: fuzzSeedSet()})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeGeneration(payload); err != nil {
		f.Fatalf("seed generation does not decode: %v", err)
	}
	return payload
}

func fuzzSeedModels(f *testing.F) []byte {
	f.Helper()
	payload, err := encodeModelSet("127.0.0.1:7102", fuzzSeedSet())
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := decodeModelSet(payload); err != nil {
		f.Fatalf("seed model set does not decode: %v", err)
	}
	return payload
}

// FuzzReadFrame drives arbitrary bytes at the frame reader. It must never
// panic, and a frame it accepts never carries a payload over its budget.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []struct {
		typ     byte
		payload []byte
	}{
		{frameHello, encodeHello([]string{"127.0.0.1:7101", "127.0.0.1:7102"})},
		{frameModels, fuzzSeedModels(f)},
		{frameGen, fuzzSeedGeneration(f)},
		{99, nil},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr.typ, fr.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncated
	}
	f.Add([]byte{frameGen, 0xff, 0xff, 0xff, 0xff}) // header over any budget
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data), fuzzFrameBudget)
		if err != nil {
			return
		}
		if len(payload) > fuzzFrameBudget {
			t.Fatalf("accepted a %d-byte payload over the %d-byte budget", len(payload), fuzzFrameBudget)
		}
		if typ != data[0] || int(binary.LittleEndian.Uint32(data[1:5])) != len(payload) {
			t.Fatalf("frame (type %d, %d bytes) disagrees with its header % x", typ, len(payload), data[:5])
		}
	})
}

// FuzzDecodeGeneration drives arbitrary bytes at the generation decoder.
// It must never panic; it accepts only payloads whose content digest
// matches, and an accepted generation re-encodes to a payload that decodes
// to the same (Seq, Origin) and tag set.
func FuzzDecodeGeneration(f *testing.F) {
	valid := fuzzSeedGeneration(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	tampered := slices.Clone(valid)
	tampered[len(tampered)-1] ^= 0x01
	f.Add(tampered)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeGeneration(data)
		if err != nil {
			return
		}
		// Layout: [seq uint64][origin len uint16][origin][digest uint64][set].
		off := 10 + int(binary.LittleEndian.Uint16(data[8:10]))
		if digest := binary.LittleEndian.Uint64(data[off : off+8]); wire.Checksum(data[off+8:]) != digest {
			t.Fatalf("accepted a generation whose content digest %#x does not match", digest)
		}
		again, err := encodeGeneration(g)
		if err != nil {
			t.Fatalf("accepted generation refuses to encode: %v", err)
		}
		back, err := decodeGeneration(again)
		if err != nil {
			t.Fatalf("re-encoded generation refused: %v", err)
		}
		if back.Seq != g.Seq || back.Origin != g.Origin {
			t.Fatalf("round trip moved (%d, %q) to (%d, %q)", g.Seq, g.Origin, back.Seq, back.Origin)
		}
		if got, want := sortedTags(back.Set), sortedTags(g.Set); !slices.Equal(got, want) {
			t.Fatalf("round trip changed the tag set: %v -> %v", want, got)
		}
	})
}

// FuzzDecodeHello drives arbitrary bytes at the hello decoder. It must
// never panic, and an accepted address list survives a round trip.
func FuzzDecodeHello(f *testing.F) {
	valid := encodeHello([]string{"127.0.0.1:7101", "10.0.0.2:7102"})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xff, 0xff}) // lying address count
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs, err := decodeHello(data)
		if err != nil {
			return
		}
		back, err := decodeHello(encodeHello(addrs))
		if err != nil {
			t.Fatalf("re-encoded hello refused: %v", err)
		}
		if !slices.Equal(back, addrs) {
			t.Fatalf("round trip changed the addresses: %q -> %q", addrs, back)
		}
	})
}

// FuzzDecodeModelSet drives arbitrary bytes at the peer model-set
// decoder. It must never panic, and an accepted set re-encodes to a
// payload that decodes to the same sender and tag set.
func FuzzDecodeModelSet(f *testing.F) {
	valid := fuzzSeedModels(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0xff, 0xff}) // sender longer than the payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sender, ms, err := decodeModelSet(data)
		if err != nil {
			return
		}
		again, err := encodeModelSet(sender, ms)
		if err != nil {
			t.Fatalf("accepted set refuses to encode: %v", err)
		}
		backSender, back, err := decodeModelSet(again)
		if err != nil {
			t.Fatalf("re-encoded set refused: %v", err)
		}
		if backSender != sender {
			t.Fatalf("round trip changed the sender: %q -> %q", sender, backSender)
		}
		if got, want := sortedTags(back), sortedTags(ms); !slices.Equal(got, want) {
			t.Fatalf("round trip changed the tag set: %v -> %v", want, got)
		}
	})
}
