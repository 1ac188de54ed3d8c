package hadas

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/value"
	"repro/internal/wire"
)

var codecCaller = naming.NewGenerator("codec").New()

// invokeMap is the generic-codec form of a hadas.invoke request.
func invokeMap(site string, caller naming.ID, target, method string, args []value.Value) value.Value {
	return value.NewMap(map[string]value.Value{
		"site":   value.NewString(site),
		"caller": value.NewString(caller.String()),
		"target": value.NewString(target),
		"method": value.NewString(method),
		"args":   value.NewList(args),
	})
}

// rawMap writes a map in the given entry order, repeats included — bytes
// the generic encoder never produces but a peer may send.
func rawMap(kvs ...any) []byte {
	b := wire.AppendMapHeader(nil, len(kvs)/2)
	for i := 0; i < len(kvs); i += 2 {
		b = wire.AppendValue(wire.AppendKey(b, kvs[i].(string)), kvs[i+1].(value.Value))
	}
	return b
}

// referenceInvokeRequest is the generic path the typed decoder replaced:
// wire.DecodeValue, then field extraction as handleInvoke did it, except
// that a text field holding a non-string is rejected, not coerced.
func referenceInvokeRequest(b []byte) (invokeRequest, error) {
	var req invokeRequest
	v, err := wire.DecodeValue(b)
	if err != nil {
		return req, err
	}
	m, ok := v.Map()
	if !ok {
		return req, fmt.Errorf("%w: request is not a map", core.ErrArity)
	}
	for key, dst := range map[string]*string{
		"site": &req.site, "caller": &req.caller, "target": &req.target, "method": &req.method,
	} {
		f := m[key]
		if f.IsNull() {
			continue
		}
		s, ok := f.Str()
		if !ok {
			return req, fmt.Errorf("%w: %s is not a string", core.ErrArity, key)
		}
		*dst = s
	}
	if a := m["args"]; !a.IsNull() {
		if req.args, ok = a.List(); !ok {
			return req, fmt.Errorf("%w: args is not a list", core.ErrArity)
		}
	}
	return req, nil
}

// referenceInvokeResult is the generic reply path: the "result" entry of
// a decoded map.
func referenceInvokeResult(b []byte) (value.Value, error) {
	v, err := wire.DecodeValue(b)
	if err != nil {
		return value.Null, err
	}
	m, ok := v.Map()
	if !ok {
		return value.Null, errMalformedReply
	}
	return m["result"], nil
}

func codecArgs() [][]value.Value {
	long := strings.Repeat("é", 200)
	return [][]value.Value{
		nil,
		{},
		{value.NewInt(1)},
		{value.NewString("bob"), value.NewInt(-7), value.NewFloat(2.5), value.True, value.Null},
		{value.NewBytes([]byte{0, 1, 0xff}), value.NewRef("payroll"), value.NewString(long)},
		{value.NewListOf(value.NewInt(1), value.NewListOf(value.NewString("x"))),
			value.NewMap(map[string]value.Value{"b": value.NewInt(2), "a": value.NewString("z")})},
	}
}

// goldenValues returns the captured wire encodings of the value codec's
// golden vectors.
func goldenValues(tb testing.TB) [][]byte {
	tb.Helper()
	raw, err := os.ReadFile("../wire/testdata/value_golden.json")
	if err != nil {
		tb.Fatal(err)
	}
	var entries []struct {
		Wire string `json:"wire"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		tb.Fatal(err)
	}
	out := make([][]byte, 0, len(entries))
	for _, e := range entries {
		b, err := hex.DecodeString(e.Wire)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestInvokeCodecMatchesGenericEncoding: the typed encoders write exactly
// the bytes wire.EncodeValue writes for the equivalent map.
func TestInvokeCodecMatchesGenericEncoding(t *testing.T) {
	for i, args := range codecArgs() {
		for _, text := range [][3]string{
			{"alpha", "payroll", "salaryOf"},
			{"", "", ""},
			{"ß-site", codecCaller.String(), strings.Repeat("m", 300)},
		} {
			got := encodeInvokeRequest(text[0], codecCaller, text[1], text[2], args)
			want := wire.EncodeValue(invokeMap(text[0], codecCaller, text[1], text[2], args))
			if !bytes.Equal(got, want) {
				t.Errorf("request %d %q:\n got  %x\n want %x", i, text, got, want)
			}
		}
		for _, v := range args {
			got := encodeInvokeResult(v)
			want := wire.EncodeValue(value.NewMap(map[string]value.Value{"result": v}))
			if !bytes.Equal(got, want) {
				t.Errorf("result %v:\n got  %x\n want %x", v, got, want)
			}
		}
	}
}

// TestInvokeDecodeKeyOrderAndRepeats: keys in any order decode alike, a
// repeated key's last value wins (also over an earlier malformed value),
// and null or absent fields read as empty.
func TestInvokeDecodeKeyOrderAndRepeats(t *testing.T) {
	s := value.NewString
	req, err := decodeInvokeRequest(rawMap(
		"target", value.NewInt(5), "method", s("m"), "extra", value.NewListOf(value.True),
		"args", value.NewInt(9), "target", s("payroll"), "site", value.Null,
		"args", value.NewListOf(value.NewInt(1)), "method", s("salaryOf")))
	if err != nil {
		t.Fatal(err)
	}
	if req.site != "" || req.caller != "" || req.target != "payroll" || req.method != "salaryOf" ||
		len(req.args) != 1 || !req.args[0].Equal(value.NewInt(1)) {
		t.Errorf("decoded %+v", req)
	}
	// The last value is malformed: rejected even though an earlier one was fine.
	_, err = decodeInvokeRequest(rawMap("target", s("payroll"), "target", value.NewInt(5)))
	if !errors.Is(err, core.ErrArity) || !strings.Contains(err.Error(), "target is not a string") {
		t.Errorf("repeated malformed target: err = %v", err)
	}
	v, err := decodeInvokeResult(rawMap("result", value.NewInt(1), "x", s("y"), "result", s("last")))
	if err != nil || !v.Equal(s("last")) {
		t.Errorf("repeated result = %v, %v", v, err)
	}
	if v, err := decodeInvokeResult(rawMap()); err != nil || !v.IsNull() {
		t.Errorf("absent result = %v, %v", v, err)
	}
}

var codecSink []byte

// TestInvokeCodecAllocations pins what one remote call pays in the codec.
func TestInvokeCodecAllocations(t *testing.T) {
	args := []value.Value{value.NewInt(1)}
	req := encodeInvokeRequest("alpha", codecCaller, "payroll", "salaryOf", args)
	res := encodeInvokeResult(value.NewInt(12500))
	for _, tc := range []struct {
		name string
		want float64
		f    func() error
	}{
		{"invoke encode", 1, func() error {
			codecSink = encodeInvokeRequest("alpha", codecCaller, "payroll", "salaryOf", args)
			return nil
		}},
		// One allocation holds the four text fields, one the args list.
		{"invoke decode, one int arg", 2, func() error { _, err := decodeInvokeRequest(req); return err }},
		{"result encode", 1, func() error { codecSink = encodeInvokeResult(value.NewInt(12500)); return nil }},
		{"result decode, int", 0, func() error { _, err := decodeInvokeResult(res); return err }},
	} {
		var err error
		got := testing.AllocsPerRun(100, func() { err = tc.f() })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
}

// invokeSeeds are inputs shared by both fuzz targets: the value golden
// vectors, encoder outputs, and hand-ordered maps with repeats and
// malformed fields.
func invokeSeeds(tb testing.TB) [][]byte {
	seeds := goldenValues(tb)
	for _, args := range codecArgs() {
		seeds = append(seeds, encodeInvokeRequest("alpha", codecCaller, "payroll", "salaryOf", args))
		for _, v := range args {
			seeds = append(seeds, encodeInvokeResult(v))
		}
	}
	// Args nested to the decoder's depth limit, and one level past it.
	deep := value.Null
	for i := 0; i <= wire.MaxDepth; i++ {
		seeds = append(seeds, rawMap("args", deep), rawMap("result", deep))
		deep = value.NewListOf(deep)
	}
	s := value.NewString
	seeds = append(seeds,
		rawMap("target", value.NewInt(5), "site", value.Null, "target", s("t"), "args", value.Null),
		rawMap("site", s("a"), "caller", s("c"), "site", s("b"), "args", value.NewListOf(), "args", value.Null),
		rawMap("method", value.NewListOf(s("m")), "caller", value.NewBytes([]byte("id"))),
		rawMap("args", s("scalar"), "site", s("alpha")),
		rawMap("result", value.NewInt(1), "result", value.True, "other", value.Null),
		rawMap("result", value.NewMap(nil)),
		[]byte{},
	)
	return seeds
}

// FuzzInvokeRequest: the typed request decoder never panics, accepts and
// rejects what the generic path (referenceInvokeRequest) does with equal
// fields, and the typed encoder's bytes equal the generic encoding for any
// decodable value as an argument.
func FuzzInvokeRequest(f *testing.F) {
	for _, s := range invokeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeInvokeRequest(data)
		want, wantErr := referenceInvokeRequest(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("typed err = %v, generic err = %v", err, wantErr)
		}
		if wantErr != nil {
			if errors.Is(wantErr, core.ErrArity) && !errors.Is(err, core.ErrArity) {
				t.Fatalf("typed err = %v, want ErrArity like %v", err, wantErr)
			}
			return
		}
		if got.site != want.site || got.caller != want.caller || got.target != want.target ||
			got.method != want.method || !value.NewList(got.args).Equal(value.NewList(want.args)) {
			t.Fatalf("typed %+v, generic %+v", got, want)
		}
		if id, err := naming.ParseID(got.caller); err == nil {
			enc := encodeInvokeRequest(got.site, id, got.target, got.method, got.args)
			if ref := wire.EncodeValue(invokeMap(got.site, id, got.target, got.method, got.args)); !bytes.Equal(enc, ref) {
				t.Fatalf("re-encoding %+v:\n typed   %x\n generic %x", got, enc, ref)
			}
		}
		if v, err := wire.DecodeValue(data); err == nil {
			args := []value.Value{v}
			enc := encodeInvokeRequest("s", codecCaller, "t", "m", args)
			if ref := wire.EncodeValue(invokeMap("s", codecCaller, "t", "m", args)); !bytes.Equal(enc, ref) {
				t.Fatalf("encoding arg %v:\n typed   %x\n generic %x", v, enc, ref)
			}
		}
	})
}

// FuzzInvokeResult: the typed reply decoder never panics and agrees with
// the generic path on verdict and value; the typed encoder's bytes equal
// the generic encoding of {"result": v} for any decodable v.
func FuzzInvokeResult(f *testing.F) {
	for _, s := range invokeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeInvokeResult(data)
		want, wantErr := referenceInvokeResult(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("typed err = %v, generic err = %v", err, wantErr)
		}
		if err == nil && !got.Equal(want) {
			t.Fatalf("typed %v, generic %v", got, want)
		}
		if v, err := wire.DecodeValue(data); err == nil {
			enc := encodeInvokeResult(v)
			if ref := wire.EncodeValue(value.NewMap(map[string]value.Value{"result": v})); !bytes.Equal(enc, ref) {
				t.Fatalf("encoding %v:\n typed   %x\n generic %x", v, enc, ref)
			}
		}
	})
}
