package proto

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalCommand hardens the device-side decoder: arbitrary bytes must
// produce a clean error or a valid command, never a panic or an oversized
// allocation. Run with `go test -fuzz=FuzzUnmarshalCommand` for exploration;
// the seed corpus runs as a regression in normal mode.
// addWireCorpus seeds every truncation prefix and every single-byte
// corruption of a well-formed frame, so the regression corpus covers a cut
// or a flip at each wire offset (header fields, length words, payload).
func addWireCorpus(f *testing.F, frame []byte) {
	for off := 0; off < len(frame); off++ {
		f.Add(frame[:off])
		corrupt := append([]byte(nil), frame...)
		corrupt[off] ^= 0xFF
		f.Add(corrupt)
	}
}

// badLevelQuery is a well-formed query command whose level word (Args[3],
// level+1) names no accelerator level.
func badLevelQuery(db, model uint64, qfv []float32) Command {
	payload, _ := EncodeFeatures([][]float32{qfv})
	return Command{
		Op: OpQuery, CID: 7, DB: db, Model: model,
		Args: [4]uint64{5, 0, 0, 99}, Payload: payload,
	}
}

func FuzzUnmarshalCommand(f *testing.F) {
	good, _ := MarshalCommand(Command{Op: OpQuery, CID: 1, Payload: []byte{1, 2, 3}})
	f.Add(good)
	badLevel, _ := MarshalCommand(badLevelQuery(1, 1, []float32{1, 2}))
	f.Add(badLevel)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xD5}, 64))
	f.Add(bytes.Repeat([]byte{0xFF}, 80))
	addWireCorpus(f, good)
	f.Fuzz(func(t *testing.T, data []byte) {
		cmd, err := UnmarshalCommand(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A decoded command must re-encode.
		if _, err := MarshalCommand(cmd); err != nil {
			t.Fatalf("decoded command does not re-encode: %v", err)
		}
	})
}

// FuzzUnmarshalCompletion does the same for the host-side decoder.
func FuzzUnmarshalCompletion(f *testing.F) {
	good, _ := MarshalCompletion(Completion{CID: 2, Status: StatusSuccess, Detail: "d", Payload: []byte{9}})
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xD6}, 32))
	addWireCorpus(f, good)
	f.Fuzz(func(t *testing.T, data []byte) {
		cpl, err := UnmarshalCompletion(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := MarshalCompletion(cpl); err != nil {
			t.Fatalf("decoded completion does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeFeatures hardens the bulk feature decoder.
func FuzzDecodeFeatures(f *testing.F) {
	good, _ := EncodeFeatures([][]float32{{1, 2}, {3, 4}})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		feats, err := DecodeFeatures(data)
		if err != nil {
			return
		}
		re, err := EncodeFeatures(feats)
		if err != nil {
			t.Fatalf("decoded features do not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("feature payload not canonical")
		}
	})
}
