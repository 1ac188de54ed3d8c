package wire

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/value"
)

// Value wire tags mirror value.Kind but are pinned independently so the
// in-memory enum can evolve without breaking the format.
const (
	tagNull   = 0
	tagFalse  = 1
	tagTrue   = 2
	tagInt    = 3
	tagFloat  = 4
	tagString = 5
	tagBytes  = 6
	tagList   = 7
	tagMap    = 8
	tagRef    = 9
	tagTime   = 10
)

// PutValue appends the encoding of v.
func PutValue(w *Writer, v value.Value) {
	switch v.Kind() {
	case value.KindNull:
		w.Byte(tagNull)
	case value.KindBool:
		b, _ := v.Bool()
		if b {
			w.Byte(tagTrue)
		} else {
			w.Byte(tagFalse)
		}
	case value.KindInt:
		i, _ := v.Int()
		w.Byte(tagInt)
		w.Varint(i)
	case value.KindFloat:
		f, _ := v.Float()
		w.Byte(tagFloat)
		w.Float(f)
	case value.KindString:
		s, _ := v.Str()
		w.Byte(tagString)
		w.String(s)
	case value.KindBytes:
		b, _ := v.Bytes()
		w.Byte(tagBytes)
		w.BytesField(b)
	case value.KindList:
		l, _ := v.List()
		w.Byte(tagList)
		w.Uvarint(uint64(len(l)))
		for _, e := range l {
			PutValue(w, e)
		}
	case value.KindMap:
		m, _ := v.Map()
		w.Byte(tagMap)
		w.Uvarint(uint64(len(m)))
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic encoding
		for _, k := range keys {
			w.String(k)
			PutValue(w, m[k])
		}
	case value.KindRef:
		r, _ := v.Ref()
		w.Byte(tagRef)
		w.String(r)
	case value.KindTime:
		t, _ := v.Time()
		w.Byte(tagTime)
		w.Varint(t.UnixNano())
	default:
		// Unreachable for well-formed values; encode as null rather than
		// corrupting the stream.
		w.Byte(tagNull)
	}
}

// GetValue decodes one value.
func GetValue(r *Reader) (value.Value, error) {
	return getValueDepth(r, 0)
}

func getValueDepth(r *Reader, depth int) (value.Value, error) {
	if depth > MaxDepth {
		return value.Null, fmt.Errorf("%w: value nesting exceeds %d", ErrCodec, MaxDepth)
	}
	tag, err := r.Byte()
	if err != nil {
		return value.Null, err
	}
	switch tag {
	case tagNull:
		return value.Null, nil
	case tagFalse:
		return value.False, nil
	case tagTrue:
		return value.True, nil
	case tagInt:
		i, err := r.Varint()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(i), nil
	case tagFloat:
		f, err := r.Float()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(f), nil
	case tagString:
		s, err := r.String()
		if err != nil {
			return value.Null, err
		}
		return value.NewString(s), nil
	case tagBytes:
		b, err := r.BytesField()
		if err != nil {
			return value.Null, err
		}
		return value.NewBytes(b), nil
	case tagList:
		n, err := r.Count()
		if err != nil {
			return value.Null, err
		}
		out := make([]value.Value, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			e, err := getValueDepth(r, depth+1)
			if err != nil {
				return value.Null, err
			}
			out = append(out, e)
		}
		return value.NewList(out), nil
	case tagMap:
		n, err := r.Count()
		if err != nil {
			return value.Null, err
		}
		out := make(map[string]value.Value, min(n, 1024))
		for i := 0; i < n; i++ {
			k, err := r.String()
			if err != nil {
				return value.Null, err
			}
			e, err := getValueDepth(r, depth+1)
			if err != nil {
				return value.Null, err
			}
			out[k] = e
		}
		return value.NewMap(out), nil
	case tagRef:
		s, err := r.String()
		if err != nil {
			return value.Null, err
		}
		return value.NewRef(s), nil
	case tagTime:
		ns, err := r.Varint()
		if err != nil {
			return value.Null, err
		}
		return value.NewTime(time.Unix(0, ns).UTC()), nil
	default:
		return value.Null, fmt.Errorf("%w: unknown value tag %d", ErrCodec, tag)
	}
}

// EncodeValue is a convenience wrapper returning a fresh encoding of v,
// built in one buffer of exactly ValueSize(v) bytes.
func EncodeValue(v value.Value) []byte {
	return AppendValue(make([]byte, 0, ValueSize(v)), v)
}

// DecodeValue decodes a value and requires full consumption of the input.
func DecodeValue(b []byte) (value.Value, error) {
	r := NewReader(b)
	v, err := GetValue(r)
	if err != nil {
		return value.Null, err
	}
	if err := r.End(); err != nil {
		return value.Null, err
	}
	return v, nil
}

// AppendValue appends the encoding of v to b and returns the extended slice.
func AppendValue(b []byte, v value.Value) []byte {
	w := Writer{buf: b}
	PutValue(&w, v)
	return w.buf
}

// ValueSize returns the length of v's encoding, len(EncodeValue(v)), so a
// caller can size a message buffer before writing it.
func ValueSize(v value.Value) int {
	switch v.Kind() {
	case value.KindInt:
		i, _ := v.Int()
		return 1 + varintLen(i)
	case value.KindFloat:
		return 9
	case value.KindString:
		s, _ := v.Str()
		return 1 + blobSize(len(s))
	case value.KindBytes:
		b, _ := v.Bytes()
		return 1 + blobSize(len(b))
	case value.KindList:
		l, _ := v.List()
		n := 1 + uvarintLen(uint64(len(l)))
		for _, e := range l {
			n += ValueSize(e)
		}
		return n
	case value.KindMap:
		m, _ := v.Map()
		n := 1 + uvarintLen(uint64(len(m)))
		for k, e := range m {
			n += blobSize(len(k)) + ValueSize(e)
		}
		return n
	case value.KindRef:
		r, _ := v.Ref()
		return 1 + blobSize(len(r))
	case value.KindTime:
		t, _ := v.Time()
		return 1 + varintLen(t.UnixNano())
	default: // null, bool, and the unreachable kinds PutValue writes as null
		return 1
	}
}

// blobSize is the encoded size of an n-byte length-prefixed string.
func blobSize(n int) int { return uvarintLen(uint64(n)) + n }

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1 // zig-zag, as binary.AppendVarint
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// Typed messages. A protocol message of fixed shape (a map whose keys are
// known) can be written and read without building a map[string]value.Value,
// provided its bytes stay exactly those PutValue writes for the equivalent
// map: the header, then each key in sorted order followed by its value.

// AppendMapHeader appends the tag and entry count that open an n-entry map.
func AppendMapHeader(b []byte, n int) []byte {
	return binary.AppendUvarint(append(b, tagMap), uint64(n))
}

// AppendKey appends one map key.
func AppendKey(b []byte, k string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(k))), k...)
}

// AppendStringHeader appends the tag and length of a string value; the
// caller appends its n bytes of text next.
func AppendStringHeader(b []byte, n int) []byte {
	return binary.AppendUvarint(append(b, tagString), uint64(n))
}

// GetMapHeader reads the tag and entry count that open a map value, for a
// typed reader that walks the entries itself: BytesView for each key, then
// GetEntryValue or GetTextView for its value. ok is false when the value
// is of another kind; only its tag has then been consumed.
func GetMapHeader(r *Reader) (n int, ok bool, err error) {
	tag, err := r.Byte()
	if err != nil || tag != tagMap {
		return 0, false, err
	}
	n, err = r.Count()
	return n, err == nil, err
}

// GetEntryValue decodes the value of one entry of a top-level map, under
// the nesting limit DecodeValue applies at that depth.
func GetEntryValue(r *Reader) (value.Value, error) { return getValueDepth(r, 1) }

// GetTextView decodes the value of one entry of a top-level map that a
// typed reader expects to be text. A string yields its bytes, aliasing
// r's buffer, and null yields nil; both report ok. Any other well-formed
// value is consumed, checked as GetEntryValue checks it, and reports !ok.
func GetTextView(r *Reader) (text []byte, ok bool, err error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, false, err
	}
	switch tag {
	case tagString:
		text, err = r.BytesView()
		return text, err == nil, err
	case tagNull:
		return nil, true, nil
	}
	r.off--
	_, err = GetEntryValue(r)
	return nil, false, err
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
