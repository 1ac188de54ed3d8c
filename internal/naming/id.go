// Package naming implements the decentralized identity and naming substrate
// the paper requires: "there should be built-in decentralized mechanisms for
// assigning distinct names for objects" (§1, Identity and Naming). IDs are
// 128-bit values minted locally — no coordination between sites — composed of
// a site fingerprint, a timestamp, a per-generator counter and random bits,
// so collisions across the "very large universe of objects" are negligible.
//
// The package also provides hierarchical paths ("site!container!item") and a
// per-site Registry mapping IDs and human names to live objects.
package naming

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBadID reports an unparseable ID literal.
var ErrBadID = errors.New("malformed object id")

// ID is a 128-bit decentralized object identity.
//
// Layout: bytes 0..3 site fingerprint, 4..9 unix-milli timestamp (48 bits),
// 10..11 generator counter, 12..15 random.
type ID [16]byte

// Nil is the zero ID, used as "no object".
var Nil ID

// IsNil reports whether id is the zero ID.
func (id ID) IsNil() bool { return id == Nil }

// String renders the canonical lower-case hex form, grouped for readability:
// ssssssss-tttttttttttt-cccc-rrrrrrrr.
func (id ID) String() string {
	var buf [IDTextLen]byte
	return string(id.AppendText(buf[:0]))
}

// IDTextLen is the length of the canonical text form; its dashes sit at
// offsets 8, 21 and 26.
const IDTextLen = 35

// AppendText appends the canonical String form of id to b and returns the
// extended slice; it allocates only when b lacks room for 35 more bytes.
func (id ID) AppendText(b []byte) []byte {
	const digits = "0123456789abcdef"
	for i, c := range id {
		if i == 4 || i == 10 || i == 12 {
			b = append(b, '-')
		}
		b = append(b, digits[c>>4], digits[c&0x0f])
	}
	return b
}

// Site returns the 32-bit site fingerprint embedded in the ID.
func (id ID) Site() uint32 { return binary.BigEndian.Uint32(id[0:4]) }

// Minted returns the embedded mint timestamp, millisecond precision.
func (id ID) Minted() time.Time {
	var buf [8]byte
	copy(buf[2:], id[4:10])
	ms := binary.BigEndian.Uint64(buf[:])
	return time.UnixMilli(int64(ms)).UTC()
}

// ParseID parses the canonical String form; hex digits may be upper- or
// lower-case.
func ParseID(s string) (ID, error) { return parseID(s) }

// ParseIDBytes is ParseID over a byte slice, for callers holding the text
// in a message buffer; it does not retain b.
func ParseIDBytes(b []byte) (ID, error) { return parseID(b) }

// parseID decodes in place: a well-formed literal costs no allocation.
func parseID[T string | []byte](s T) (ID, error) {
	var id ID
	if len(s) != IDTextLen || s[8] != '-' || s[21] != '-' || s[26] != '-' {
		return Nil, fmt.Errorf("%w: %q", ErrBadID, s)
	}
	i := 0 // position in s
	for at := range id {
		if at == 4 || at == 10 || at == 12 {
			i++ // the dash, checked above
		}
		hi, ok1 := fromHex(s[i])
		lo, ok2 := fromHex(s[i+1])
		if !ok1 || !ok2 {
			bad := s[i]
			if ok1 {
				bad = s[i+1]
			}
			return Nil, fmt.Errorf("%w: %q: %v", ErrBadID, s, hex.InvalidByteError(bad))
		}
		id[at] = hi<<4 | lo
		i += 2
	}
	return id, nil
}

func fromHex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Generator mints IDs for one site without coordination. The zero value is
// not usable; construct with NewGenerator.
type Generator struct {
	site    uint32
	counter atomic.Uint32
	now     func() time.Time
}

// NewGenerator returns a Generator whose IDs carry a fingerprint of siteName.
func NewGenerator(siteName string) *Generator {
	h := fnv.New32a()
	h.Write([]byte(siteName))
	return &Generator{site: h.Sum32(), now: time.Now}
}

// newGeneratorAt is a test seam fixing the clock.
func newGeneratorAt(siteName string, now func() time.Time) *Generator {
	g := NewGenerator(siteName)
	g.now = now
	return g
}

// New mints a fresh ID. Safe for concurrent use.
func (g *Generator) New() ID {
	var id ID
	binary.BigEndian.PutUint32(id[0:4], g.site)
	ms := uint64(g.now().UnixMilli())
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], ms)
	copy(id[4:10], buf[2:])
	binary.BigEndian.PutUint16(id[10:12], uint16(g.counter.Add(1)))
	if _, err := rand.Read(id[12:16]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// counter-derived bits rather than panicking in a library.
		binary.BigEndian.PutUint32(id[12:16], g.counter.Add(1)*2654435761)
	}
	return id
}

// Site returns the generator's site fingerprint.
func (g *Generator) Site() uint32 { return g.site }

// Registry maps names and IDs to live objects at one site. It is the local
// half of the naming requirement; global uniqueness comes from the IDs
// themselves. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byID   map[ID]any
	byName map[string]ID
	// names is the reverse of byName: the names bound to each ID, so
	// Deregister (every agent departure) costs the object's own names, not
	// every name at the site.
	names map[ID][]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:   make(map[ID]any),
		byName: make(map[string]ID),
		names:  make(map[ID][]string),
	}
}

// ErrNameTaken reports a Bind against an already-bound human name.
var ErrNameTaken = errors.New("name already bound")

// ErrUnbound reports a lookup of an unknown name or ID.
var ErrUnbound = errors.New("name not bound")

// Register associates id with obj, replacing any previous association.
func (r *Registry) Register(id ID, obj any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID[id] = obj
}

// Deregister removes id and any human names bound to it.
func (r *Registry) Deregister(id ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byID, id)
	for _, name := range r.names[id] {
		delete(r.byName, name)
	}
	delete(r.names, id)
}

// Bind gives id a human-readable name. Names are unique per site.
func (r *Registry) Bind(name string, id ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok && prev != id {
		return fmt.Errorf("%w: %q", ErrNameTaken, name)
	}
	if _, ok := r.byID[id]; !ok {
		return fmt.Errorf("%w: id %s not registered", ErrUnbound, id)
	}
	r.bindLocked(name, id)
	return nil
}

// Rebind points name at id atomically, replacing any previous binding.
// Unlike an Unbind/Bind pair, the name never passes through an unbound
// window: a concurrent Lookup sees either the old object or the new one,
// never "name not bound". The id must already be registered.
func (r *Registry) Rebind(name string, id ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return fmt.Errorf("%w: id %s not registered", ErrUnbound, id)
	}
	r.bindLocked(name, id)
	return nil
}

// Unbind removes a human name, leaving the object registered.
func (r *Registry) Unbind(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		delete(r.byName, name)
		r.names[id] = slices.DeleteFunc(r.names[id], func(n string) bool { return n == name })
	}
}

// bindLocked points name at id, moving it off any previous ID's name list.
// Callers hold r.mu for writing.
func (r *Registry) bindLocked(name string, id ID) {
	prev, bound := r.byName[name]
	if bound && prev == id {
		return
	}
	if bound {
		r.names[prev] = slices.DeleteFunc(r.names[prev], func(n string) bool { return n == name })
	}
	r.byName[name] = id
	r.names[id] = append(r.names[id], name)
}

// LookupID returns the object registered under id.
func (r *Registry) LookupID(id ID) (any, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	obj, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %s", ErrUnbound, id)
	}
	return obj, nil
}

// Lookup resolves a human name to its object.
func (r *Registry) Lookup(name string) (any, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnbound, name)
	}
	obj, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q (stale binding)", ErrUnbound, name)
	}
	return obj, nil
}

// Resolve returns the ID bound to a human name.
func (r *Registry) Resolve(name string) (ID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byName[name]
	if !ok {
		return Nil, fmt.Errorf("%w: %q", ErrUnbound, name)
	}
	return id, nil
}

// Names returns all bound human names, in no particular order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	return names
}

// Len reports the number of registered objects.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}
