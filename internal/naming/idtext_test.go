package naming

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// referenceParseID is the hex.DecodeString-based parser ParseID replaced,
// kept as the oracle for TestParseIDParity.
func referenceParseID(s string) (ID, error) {
	var id ID
	if len(s) != 35 || s[8] != '-' || s[21] != '-' || s[26] != '-' {
		return Nil, fmt.Errorf("%w: %q", ErrBadID, s)
	}
	parts := []struct {
		from, to int // positions in s
		at       int // offset in id
	}{
		{0, 8, 0},
		{9, 21, 4},
		{22, 26, 10},
		{27, 35, 12},
	}
	for _, p := range parts {
		b, err := hex.DecodeString(s[p.from:p.to])
		if err != nil {
			return Nil, fmt.Errorf("%w: %q: %v", ErrBadID, s, err)
		}
		copy(id[p.at:], b)
	}
	return id, nil
}

// TestParseIDParity: the in-place parser gives the reference parser's
// verdict, ID and message on every input, through both the string and
// the []byte form.
func TestParseIDParity(t *testing.T) {
	const valid = "0a1b2c3d-4e5f60718293-a4b5-c6d7e8f9"
	inputs := []string{
		valid,
		strings.ToUpper(valid),
		"0A1b2C3d-4E5f60718293-A4b5-c6D7e8F9",    // mixed case
		"00000000-000000000000-0000-00000000",    // Nil
		"ffffffff-ffffffffffff-ffff-ffffffff",    // all ones
		"FFFFFFFF-FFFFFFFFFFFF-FFFF-FFFFFFFF",    // all ones, upper
		"0a1b2c3g-4e5f60718293-a4b5-c6d7e8f9",    // non-hex, first group
		"0a1b2c3d-4e5f6071829z-a4b5-c6d7e8f9",    // non-hex, second group
		"0a1b2c3d-4e5f60718293-a4 5-c6d7e8f9",    // space
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f\x00", // NUL
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f\xff", // high byte
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8fé",    // multi-byte rune, wrong length
		"\xe90a1b2c-4e5f60718293-a4b5-c6d7e8f",   // multi-byte first
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8é",     // multi-byte rune, right length
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f",     // 34 bytes
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f90",   // 36 bytes
		"",                                       // empty
		"0a1b2c3d4e5f60718293a4b5c6d7e8f9",       // no dashes
		"0a1b2c3d-4e5f60718293-a4b5c6d7e8f9-",    // last dash moved
		"0a1b2c3-d4e5f60718293-a4b5-c6d7e8f9",    // first dash moved
		"0a1b2c3d-4e5f6071829-3a4b5-c6d7e8f9",    // second dash moved
		"0a1b2c3d-4e5f60718293-a4b5-c6d7-8f9",    // extra dash in a group
		"0a1b2c3d+4e5f60718293-a4b5-c6d7e8f9",    // wrong separator
		"-0a1b2c3d4e5f60718293-a4b5-c6d7e8f9",    // leading dash
		"0x1b2c3d-4e5f60718293-a4b5-c6d7e8f9",    // 0x prefix
		"0a1b2c3d-4e5f60718293-a4b5--6d7e8f9",    // double dash
		"+a1b2c3d-4e5f60718293-a4b5-c6d7e8f9",    // sign
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8fG",    // G after F
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f@",    // byte before A
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f`",    // byte before a
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f/",    // byte before 0
		"0a1b2c3d-4e5f60718293-a4b5-c6d7e8f:",    // byte after 9
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 35; i++ {
		var id ID
		rng.Read(id[:])
		s := id.String()
		if i%2 == 1 {
			s = strings.ToUpper(s)
		}
		inputs = append(inputs, s)
	}
	for _, s := range inputs {
		want, wantErr := referenceParseID(s)
		for form, parse := range map[string]func(string) (ID, error){
			"string": ParseID,
			"bytes":  func(s string) (ID, error) { return ParseIDBytes([]byte(s)) },
		} {
			got, err := parse(s)
			if (err == nil) != (wantErr == nil) || got != want {
				t.Errorf("%s form of %q: got (%v, %v), want (%v, %v)", form, s, got, err, want, wantErr)
				continue
			}
			if err != nil && err.Error() != wantErr.Error() {
				t.Errorf("%s form of %q: message %q, want %q", form, s, err, wantErr)
			}
		}
	}
}

// TestIDTextAllocations pins the allocation cost of the text forms: the
// invoke path appends and parses ids on every remote call.
func TestIDTextAllocations(t *testing.T) {
	id := NewGenerator("alloc").New()
	s := id.String()
	buf := make([]byte, 0, 64)
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"AppendText into a buffer with room", 0, func() { buf = id.AppendText(buf[:0]) }},
		{"ParseID", 0, func() {
			if _, err := ParseID(s); err != nil {
				t.Fatal(err)
			}
		}},
		{"ParseIDBytes", 0, func() {
			if _, err := ParseIDBytes(buf); err != nil {
				t.Fatal(err)
			}
		}},
		{"String", 1, func() { s = id.String() }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
	if string(buf) != s {
		t.Errorf("AppendText = %q, String = %q", buf, s)
	}
}
