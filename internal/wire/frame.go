package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// FrameType discriminates transport messages.
type FrameType uint8

// Frame types of the site-to-site protocol. Types 6-9 form the streaming
// extension (protocol v2): large payloads travel as FrameChunk runs closed
// by a FrameStreamEnd (which carries the verb for request streams), the
// receiver grants window space back with FrameCredit, and FrameCancel
// tears down a stream (or an in-flight request) early. Unknown types are
// ignored by older receivers, so the schema can keep growing.
const (
	FrameRequest  FrameType = 1
	FrameResponse FrameType = 2
	FrameError    FrameType = 3
	FramePing     FrameType = 4
	FramePong     FrameType = 5
	// FrameChunk carries one bounded slice of a streamed payload.
	FrameChunk FrameType = 6
	// FrameStreamEnd closes a chunk run: the assembled payload is complete.
	// On a request stream it carries the Verb and Chain of the call the
	// chunks spell out; on a response stream both are informational.
	FrameStreamEnd FrameType = 7
	// FrameCredit grants the stream sender window space: the payload is a
	// uvarint of bytes the receiver has consumed (credit-based flow
	// control — a slow receiver stalls its own stream, not the connection).
	FrameCredit FrameType = 8
	// FrameCancel aborts the request id it names: a partially-assembled
	// request stream is discarded, an in-flight handler's context is
	// cancelled, and a response stream stops sending.
	FrameCancel FrameType = 9
)

// String returns the frame type name.
func (t FrameType) String() string {
	switch t {
	case FrameRequest:
		return "request"
	case FrameResponse:
		return "response"
	case FrameError:
		return "error"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameChunk:
		return "chunk"
	case FrameStreamEnd:
		return "stream-end"
	case FrameCredit:
		return "credit"
	case FrameCancel:
		return "cancel"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Frame is one transport message: a type, a correlation id, a verb naming
// the operation, the call chain on whose behalf the request runs (empty
// when the caller holds no serialized admissions — then nothing upstream
// can deadlock on it), and an opaque payload.
type Frame struct {
	Type      FrameType
	RequestID uint64
	Verb      string
	Chain     string
	Payload   []byte
}

// MaxFrame bounds a whole frame on the wire.
const MaxFrame = MaxBlob + 4096

// AppendFrame appends one length-prefixed frame to buf and returns the
// extended slice — the allocation-free encoder the coalescing transport
// writers batch frames with before a single syscall.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length header, patched below
	buf = append(buf, byte(f.Type))
	buf = binary.AppendUvarint(buf, f.RequestID)
	buf = binary.AppendUvarint(buf, uint64(len(f.Verb)))
	buf = append(buf, f.Verb...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Chain)))
	buf = append(buf, f.Chain...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Payload)))
	buf = append(buf, f.Payload...)
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCodec, n)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	if bw, ok := w.(*bufio.Writer); ok {
		return bw.Flush()
	}
	return nil
}

// ReadFrame reads one length-prefixed frame. The returned Payload is a
// capacity-clipped sub-slice of the freshly allocated frame body, not a
// copy of it: it stays valid for as long as the caller holds it.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCodec, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("read frame body: %w", err)
	}
	rd := NewReader(body)
	tb, err := rd.Byte()
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: FrameType(tb)}
	if f.RequestID, err = rd.Uvarint(); err != nil {
		return Frame{}, err
	}
	if f.Verb, err = rd.String(); err != nil {
		return Frame{}, err
	}
	if f.Chain, err = rd.String(); err != nil {
		return Frame{}, err
	}
	// The payload shares body, which this frame alone owns: no second copy.
	if f.Payload, err = rd.BytesView(); err != nil {
		return Frame{}, err
	}
	if !rd.Done() {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes in frame", ErrCodec, rd.Remaining())
	}
	return f, nil
}
