package hadas

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// TestProtocolRejectsGarbage drives the site endpoint with hostile inputs:
// non-value payloads, non-map requests, unknown verbs, bad ids. Every case
// must fail cleanly as a remote error — never crash the site.
func TestProtocolRejectsGarbage(t *testing.T) {
	net := transport.NewInProcNet()
	s := newTestSite(t, net, "fortress")
	addEmployeeDB(t, s)
	conn, err := net.Dial("fortress")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cases := []struct {
		name    string
		verb    string
		payload []byte
	}{
		{"binary garbage", verbInvoke, []byte{0xFF, 0xFE, 0xFD}},
		{"empty payload", verbInvoke, nil},
		{"non-map request", verbInvoke, wire.EncodeValue(value.NewInt(7))},
		{"unknown verb", "hadas.selfdestruct", wire.EncodeValue(value.NewMap(nil))},
		{"invoke without fields", verbInvoke, wire.EncodeValue(value.NewMap(nil))},
		{"invoke bad caller id", verbInvoke, wire.EncodeValue(value.NewMap(map[string]value.Value{
			"site":   value.NewString("fortress2"),
			"caller": value.NewString("not-an-id"),
			"target": value.NewString("payroll"),
			"method": value.NewString("query"),
		}))},
		{"export without link", verbExport, wire.EncodeValue(value.NewMap(map[string]value.Value{
			"site": value.NewString("unlinked"),
			"apo":  value.NewString("payroll"),
			"ioo":  value.NewString("also-not-an-id"),
		}))},
		{"link with own name", verbLink, wire.EncodeValue(value.NewMap(map[string]value.Value{
			"site": value.NewString("fortress"),
		}))},
		{"link with empty name", verbLink, wire.EncodeValue(value.NewMap(nil))},
		{"dispatch without link", verbDispatch, wire.EncodeValue(value.NewMap(map[string]value.Value{
			"site": value.NewString("unlinked"),
			"name": value.NewString("x"),
		}))},
		{"link with garbage ambassador", verbLink, wire.EncodeValue(value.NewMap(map[string]value.Value{
			"site": value.NewString("mallory"),
			"ioo":  value.NewBytes([]byte("not an image")),
		}))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := conn.Call(ctx, tc.verb, tc.payload)
			var re *transport.RemoteError
			if !errors.As(err, &re) {
				t.Errorf("got %v, want RemoteError", err)
			}
		})
	}
	// The site is still healthy after the abuse.
	apo, err := s.APO("payroll")
	if err != nil {
		t.Fatal(err)
	}
	v, err := apo.Invoke(s.IOO().Principal(), "salaryOf", value.NewString("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12500 {
		t.Errorf("site degraded after garbage: %v", v)
	}
}

// TestInvokeVerbRejectsMalformedArgs: a frame whose args field is present
// but not a list is a protocol error (core.ErrArity at the handler),
// not an empty argument list — silently coercing it would invoke the
// method with the wrong arity.
func TestInvokeVerbRejectsMalformedArgs(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "strict")
	peer := newTestSite(t, net, "caller-site")
	addEmployeeDB(t, origin)
	if _, err := peer.Link("strict"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("strict")
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.EncodeValue(value.NewMap(map[string]value.Value{
		"site":   value.NewString("caller-site"),
		"caller": value.NewString(peer.IOO().ID().String()),
		"target": value.NewString("payroll"),
		"method": value.NewString("salaryOf"),
		"args":   value.NewString("alice"), // scalar, not a list
	}))
	_, err = conn.Call(context.Background(), verbInvoke, payload)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if !strings.Contains(re.Error(), "args is not a list") {
		t.Errorf("error %q does not name the malformed args field", re.Error())
	}
	// Null args remain a legal empty argument list (script params bind
	// to null), not a malformed frame.
	payload = wire.EncodeValue(value.NewMap(map[string]value.Value{
		"site":   value.NewString("caller-site"),
		"caller": value.NewString(peer.IOO().ID().String()),
		"target": value.NewString("payroll"),
		"method": value.NewString("salaryOf"),
		"args":   value.Null,
	}))
	if _, err := conn.Call(context.Background(), verbInvoke, payload); err != nil {
		t.Errorf("null args rejected: %v", err)
	}
}

// TestInvokeVerbRejectsMalformedTextFields: a hadas.invoke text field
// (site, caller, target, method) holding a non-string is core.ErrArity at
// the handler, not a value coerced to its text — an int target 5 must not
// resolve the name "5". Null and absent fields still read as "".
func TestInvokeVerbRejectsMalformedTextFields(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "strict")
	peer := newTestSite(t, net, "caller-site")
	addEmployeeDB(t, origin)
	five := origin.NewAPOBuilder("Five")
	five.FixedScriptMethod("salaryOf", `fn(name) { return 5; }`)
	if err := origin.AddAPO("5", five.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Link("strict"); err != nil {
		t.Fatal(err)
	}
	request := func(field string, v value.Value) []byte {
		m := map[string]value.Value{
			"site":   value.NewString("caller-site"),
			"caller": value.NewString(peer.IOO().ID().String()),
			"target": value.NewString("payroll"),
			"method": value.NewString("salaryOf"),
			"args":   value.NewListOf(value.NewString("alice")),
		}
		m[field] = v
		return wire.EncodeValue(value.NewMap(m))
	}
	ctx := context.Background()
	for _, field := range []string{"site", "caller", "target", "method"} {
		for _, v := range []value.Value{value.NewInt(5), value.NewListOf(value.NewString("payroll")),
			value.NewRef("payroll"), value.NewBytes([]byte("payroll"))} {
			_, err := origin.handle(ctx, verbInvoke, request(field, v))
			if !errors.Is(err, core.ErrArity) || !strings.Contains(err.Error(), field+" is not a string") {
				t.Errorf("%s = %v: err = %v, want ErrArity naming the field", field, v, err)
			}
		}
	}
	// A null method reads as "" (no such method), not as "null".
	if _, err := origin.handle(ctx, verbInvoke, request("method", value.Null)); errors.Is(err, core.ErrArity) ||
		!strings.Contains(err.Error(), `""`) {
		t.Errorf("null method: err = %v, want a lookup failure for \"\"", err)
	}
	// The well-formed request still answers.
	out, err := origin.handle(ctx, verbInvoke, request("target", value.NewString("5")))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := wire.DecodeValue(out)
	if m, _ := reply.Map(); err != nil || !m["result"].Equal(value.NewInt(5)) {
		t.Errorf("string target \"5\" = %v, %v", reply, err)
	}
}

// TestInvokeVerbEnforcesPeerDomain: the handler assigns the caller's trust
// domain from the link agreement, not from anything the payload claims —
// a remote caller cannot self-grade.
func TestInvokeVerbEnforcesPeerDomain(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "guarded")
	peer := newTestSite(t, net, "lowtrust")
	addEmployeeDB(t, origin)
	if _, err := peer.Link("guarded"); err != nil {
		t.Fatal(err)
	}
	// Downgrade the peer's domain after linking.
	origin.Policy().GradeDomain("lowtrust", 0) // security.Untrusted

	// A direct protocol call claiming a caller id: the handler maps the
	// domain from the peer table, so the policy denies it.
	conn, err := net.Dial("guarded")
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.EncodeValue(value.NewMap(map[string]value.Value{
		"site":   value.NewString("lowtrust"),
		"caller": value.NewString(peer.IOO().ID().String()),
		"target": value.NewString("payroll"),
		"method": value.NewString("query"),
		"args":   value.NewListOf(value.NewString("alice")),
	}))
	if _, err := conn.Call(context.Background(), verbInvoke, payload); err == nil {
		t.Error("downgraded peer invoked through the wire")
	}
}
