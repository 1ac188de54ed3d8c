package hadas

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/value"
	"repro/internal/wire"
)

// The hadas.invoke request and its reply have fixed shapes, so they are
// written and read without building a map[string]value.Value (DESIGN.md
// §14). Their bytes stay exactly those wire.EncodeValue writes for the
// equivalent map — keys in sorted order — so a peer on the generic codec,
// the golden vectors and tools that decode invoke payloads generically
// all keep working, and no protocol version is needed.
//
//	request: {"args": [v…], "caller": id, "method": s, "site": s, "target": s}
//	reply:   {"result": v}

// invokeRequest is a decoded hadas.invoke request. Absent and null text
// fields read as "", absent and null args as no arguments.
type invokeRequest struct {
	site, caller, target, method string
	args                         []value.Value
}

// invokeTextKeys names the request's text fields in invokeRequest order.
var invokeTextKeys = [4]string{"site", "caller", "target", "method"}

// invokeFixedSize bounds the request bytes other than the three free text
// fields and args: the map header, five keys, four string tags, their
// length prefixes and the caller's text.
const invokeFixedSize = 128

// encodeInvokeRequest writes the hadas.invoke request into one buffer
// sized up front; the caller's identity text is written straight into it.
func encodeInvokeRequest(site string, caller naming.ID, target, method string, args []value.Value) []byte {
	argv := value.NewList(args)
	b := make([]byte, 0, invokeFixedSize+len(site)+len(target)+len(method)+wire.ValueSize(argv))
	b = wire.AppendMapHeader(b, 5)
	b = wire.AppendValue(wire.AppendKey(b, "args"), argv)
	b = wire.AppendKey(b, "caller")
	b = caller.AppendText(wire.AppendStringHeader(b, naming.IDTextLen))
	b = appendText(wire.AppendKey(b, "method"), method)
	b = appendText(wire.AppendKey(b, "site"), site)
	return appendText(wire.AppendKey(b, "target"), target)
}

func appendText(b []byte, s string) []byte {
	return append(wire.AppendStringHeader(b, len(s)), s...)
}

// decodeInvokeRequest reads a hadas.invoke request. Keys may come in any
// order and a repeated key's last value wins, as with wire.DecodeValue. A
// text field holding anything but a string or null, or args holding
// anything but a list or null, is a protocol error (core.ErrArity) rather
// than a value coerced to text or to no arguments. The text fields share
// one allocation and do not alias b.
func decodeInvokeRequest(b []byte) (invokeRequest, error) {
	var req invokeRequest
	r := wire.NewReader(b)
	n, isMap, err := wire.GetMapHeader(r)
	if err != nil {
		return req, protocolError(err)
	}
	if !isMap {
		return req, fmt.Errorf("%w: request is not a map", core.ErrArity)
	}
	var (
		text      [len(invokeTextKeys)][]byte
		malformed [len(invokeTextKeys)]bool
		args      value.Value
	)
	for i := 0; i < n; i++ {
		key, err := r.BytesView()
		if err != nil {
			return req, protocolError(err)
		}
		var slot int
		switch string(key) {
		case "args":
			if args, err = wire.GetEntryValue(r); err != nil {
				return req, protocolError(err)
			}
			continue
		case "site":
			slot = 0
		case "caller":
			slot = 1
		case "target":
			slot = 2
		case "method":
			slot = 3
		default: // an unknown key is checked and ignored
			if _, err := wire.GetEntryValue(r); err != nil {
				return req, protocolError(err)
			}
			continue
		}
		t, ok, err := wire.GetTextView(r)
		if err != nil {
			return req, protocolError(err)
		}
		text[slot], malformed[slot] = t, !ok
	}
	if err := r.End(); err != nil {
		return req, protocolError(err)
	}
	for i, bad := range malformed {
		if bad {
			return req, fmt.Errorf("%w: %s is not a string", core.ErrArity, invokeTextKeys[i])
		}
	}
	if !args.IsNull() {
		list, ok := args.List()
		if !ok {
			return req, fmt.Errorf("%w: args is not a list", core.ErrArity)
		}
		req.args = list
	}
	var sb strings.Builder
	sb.Grow(len(text[0]) + len(text[1]) + len(text[2]) + len(text[3]))
	for _, t := range text {
		sb.Write(t)
	}
	all := sb.String()
	cut := func(t []byte) string {
		s := all[:len(t)]
		all = all[len(t):]
		return s
	}
	req.site, req.caller, req.target, req.method = cut(text[0]), cut(text[1]), cut(text[2]), cut(text[3])
	return req, nil
}

// errMalformedReply reports an invoke reply that is well-formed wire data
// but not a map.
var errMalformedReply = errors.New("malformed response")

// encodeInvokeResult writes the hadas.invoke reply carrying v into one
// buffer sized up front.
func encodeInvokeResult(v value.Value) []byte {
	b := make([]byte, 0, 16+wire.ValueSize(v))
	b = wire.AppendMapHeader(b, 1)
	return wire.AppendValue(wire.AppendKey(b, "result"), v)
}

// decodeInvokeResult reads a hadas.invoke reply: the value of its
// "result" key (the last one, if repeated), or null when absent.
func decodeInvokeResult(b []byte) (value.Value, error) {
	r := wire.NewReader(b)
	n, isMap, err := wire.GetMapHeader(r)
	if err != nil {
		return value.Null, protocolError(err)
	}
	if !isMap {
		return value.Null, errMalformedReply
	}
	result := value.Null
	for i := 0; i < n; i++ {
		key, err := r.BytesView()
		if err != nil {
			return value.Null, protocolError(err)
		}
		v, err := wire.GetEntryValue(r)
		if err != nil {
			return value.Null, protocolError(err)
		}
		if string(key) == "result" {
			result = v
		}
	}
	if err := r.End(); err != nil {
		return value.Null, protocolError(err)
	}
	return result, nil
}
