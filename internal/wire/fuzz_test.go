package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzReadFrame: ReadFrame never panics on arbitrary bytes, a frame it
// accepts survives AppendFrame and a second ReadFrame unchanged, and a
// frame built from the input round-trips through AppendFrame.
func FuzzReadFrame(f *testing.F) {
	for _, g := range frameGolden {
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	var entries []goldenEntry
	readGolden(f, "value_golden.json", &entries)
	for _, e := range entries {
		payload, err := hex.DecodeString(e.Wire)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := AppendFrame(nil, Frame{Type: FrameRequest, RequestID: 1, Verb: "hadas.invoke", Payload: payload})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := ReadFrame(bytes.NewReader(data)); err == nil {
			roundTrip(t, fr)
		}
		third := len(data) / 3
		roundTrip(t, Frame{
			Type:      FrameType(len(data)),
			RequestID: uint64(len(data)) * 0x9e3779b97f4a7c15,
			Verb:      string(data[:third]),
			Chain:     string(data[third : 2*third]),
			Payload:   data[2*third:],
		})
	})
}

func roundTrip(t *testing.T, want Frame) {
	t.Helper()
	raw, err := AppendFrame(nil, want)
	if err != nil {
		t.Fatalf("AppendFrame(%+v): %v", want, err)
	}
	got, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadFrame of AppendFrame(%+v): %v", want, err)
	}
	if got.Type != want.Type || got.RequestID != want.RequestID || got.Verb != want.Verb ||
		got.Chain != want.Chain || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if len(got.Payload) != cap(got.Payload) {
		t.Fatalf("payload len %d cap %d: not capacity-clipped", len(got.Payload), cap(got.Payload))
	}
}
