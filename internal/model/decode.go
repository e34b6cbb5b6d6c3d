package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"cnetverifier/internal/types"
)

// errTruncated reports an encoding that ends mid-field.
var errTruncated = errors.New("model: decode: truncated encoding")

// DecodeInto sets w to the state that enc — an Encode output of a world
// with w's structure (the same processes, channels, timer definitions
// and symmetry descriptor, e.g. a clone of the world that produced it)
// — describes. It is the inverse of Encode up to what Encode leaves out:
//
//   - the clock restarts at 0 and every armed window becomes relative
//     to it, which changes no behaviour (ShiftTime is the witness); a
//     timer's arming instant, which only ScaleTimerBounds reads, is
//     reconstructed from its latest bound;
//   - a queued message's To is its channel's owner, as Send and Inject
//     set it;
//   - the globals layout is found through its header, which names it by
//     digest (every layout registers its header with the name registry
//     when first encoded, so any encoding this process wrote decodes);
//   - Stats, a work tally, is left as it is.
//
// The frontier search stores states as encodings and decodes each into
// one reusable world per worker. Malformed input is an error, never a
// panic; w is then in an unspecified but valid state.
func (w *World) DecodeInto(enc []byte) error {
	in := enc
	var err error
	for _, p := range w.Procs {
		if in, err = p.M.Decode(in); err != nil {
			return fmt.Errorf("model: decode: process %s: %w", p.Name, err)
		}
	}
	for _, c := range w.Chans {
		if in, err = w.decodeQueue(c, in); err != nil {
			return fmt.Errorf("model: decode: queue %s: %w", c.Name, err)
		}
	}
	if in, err = w.decodeGlobals(in); err != nil {
		return err
	}
	if w.timing != nil {
		if in, err = w.decodeTimers(in); err != nil {
			return err
		}
	}
	if len(in) > 0 {
		return fmt.Errorf("model: decode: %d trailing bytes", len(in))
	}
	return nil
}

// decodeQueue reads one channel's queue: a u16 length, then per message
// the fixed-width record of appendMsg and the NUL-terminated sender.
func (w *World) decodeQueue(c *Channel, in []byte) ([]byte, error) {
	if len(in) < 2 {
		return nil, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(in))
	in = in[2:]
	c.Queue = c.Queue[:0]
	for i := 0; i < n; i++ {
		if len(in) < 11 {
			return nil, errTruncated
		}
		m := types.Message{
			Kind:   types.MsgKind(binary.LittleEndian.Uint16(in)),
			Cause:  types.Cause(binary.LittleEndian.Uint16(in[2:])),
			Seq:    binary.LittleEndian.Uint32(in[4:]),
			System: types.System(in[8]),
			Domain: types.Domain(in[9]),
			Proto:  types.Protocol(in[10]),
			To:     c.Name,
		}
		in = in[11:]
		end := bytes.IndexByte(in, 0)
		if end < 0 {
			return nil, errTruncated
		}
		m.From = w.senderName(in[:end])
		in = in[end+1:]
		c.Queue = append(c.Queue, m)
	}
	return in, nil
}

// senderName returns a message sender's name, sharing the process name
// string when the sender is a process of the world (the common case, so
// decoding a queue allocates nothing).
func (w *World) senderName(b []byte) string {
	if i, ok := w.procIdx[string(b)]; ok {
		return w.Procs[i].Name
	}
	return string(b)
}

// decodeGlobals reads the globals section: the layout's header (see
// nameRegistry.header) and one 4-byte value per name.
func (w *World) decodeGlobals(in []byte) ([]byte, error) {
	hdr, err := headerLen(in)
	if err != nil {
		return nil, err
	}
	lay := w.layout()
	if !bytes.Equal(in[:hdr], lay.header()) {
		var ok bool
		if lay, ok = digests.layout(in[:hdr]); !ok {
			return nil, fmt.Errorf("model: decode: unknown globals header %x", in[:hdr])
		}
		w.glay = lay
	}
	in = in[hdr:]
	n := len(lay.names)
	if len(in) < 4*n {
		return nil, errTruncated
	}
	w.gvals = w.gvals[:0]
	for i := 0; i < n; i++ {
		w.gvals = append(w.gvals, int32(binary.LittleEndian.Uint32(in[4*i:])))
	}
	return in[4*n:], nil
}

// headerLen returns the byte length of the globals header at the front
// of in.
func headerLen(in []byte) (int, error) {
	if len(in) < 2 {
		return 0, errTruncated
	}
	count := int(binary.LittleEndian.Uint16(in))
	if count == 0 {
		return 2, nil
	}
	if len(in) < 3 {
		return 0, errTruncated
	}
	switch in[2] {
	case tagDigest:
		if len(in) < 11 {
			return 0, errTruncated
		}
		return 11, nil
	case tagNames:
		n := 3
		for i := 0; i < count; i++ {
			end := bytes.IndexByte(in[n:], 0)
			if end < 0 {
				return 0, errTruncated
			}
			n += end + 1
		}
		return n, nil
	default:
		return 0, fmt.Errorf("model: decode: bad globals header tag %d", in[2])
	}
}

// decodeTimers reads the zone-abstracted timer section of encodeTimers
// and restarts the clock at 0.
func (w *World) decodeTimers(in []byte) ([]byte, error) {
	if len(in) < 2 {
		return nil, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(in))
	in = in[2:]
	if len(in) < 10*n {
		return nil, errTruncated
	}
	w.now = 0
	w.timers = w.timers[:0]
	for i := 0; i < n; i++ {
		t := armedTimer{
			def: int32(binary.LittleEndian.Uint16(in)),
			lo:  int64(binary.LittleEndian.Uint32(in[2:])),
			hi:  int64(binary.LittleEndian.Uint32(in[6:])),
		}
		in = in[10:]
		if int(t.def) >= len(w.timing.defs) || (i > 0 && t.def <= w.timers[i-1].def) {
			return nil, fmt.Errorf("model: decode: timer definition %d out of order or range", t.def)
		}
		if t.lo > t.hi || t.hi > timerBoundMax {
			return nil, fmt.Errorf("model: decode: timer window [%d, %d] invalid", t.lo, t.hi)
		}
		t.arm = t.hi - w.timing.defs[t.def].Hi
		w.timers = append(w.timers, t)
	}
	return in, nil
}
