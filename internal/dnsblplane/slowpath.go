package dnsblplane

import (
	"encoding/binary"

	"tasterschoice/internal/dnsbl"
)

// slowOrDrop runs the slow path, accounting drops.
func (r *Responder) slowOrDrop(dst, raw []byte) []byte {
	out := r.slow(dst, raw)
	if out == nil {
		r.p.Metrics.Dropped.Inc()
	}
	return out
}

// slow answers the query shapes the wire fast path refuses to guess
// at — multiple questions, non-query opcodes, compression pointers or
// names too long for its buffer — after a full parse by the
// internal/dnsbl codec. A query the codec rejects is dropped. One with
// a single question is answered as the fast path answers the same
// question sent uncompressed. Any other shape gets FORMERR, degraded
// to a bare FORMERR when its question cannot be re-packed (appendPack).
// These shapes are rare on a healthy wire, so allocating here is fine.
func (r *Responder) slow(dst, raw []byte) []byte {
	query, err := dnsbl.Unpack(raw)
	if err != nil || query.Header.Response {
		return nil // not a query we can answer; drop
	}
	if len(query.Questions) != 1 || query.Header.Opcode != 0 {
		resp := &dnsbl.Message{
			Header: dnsbl.Header{
				ID:               query.Header.ID,
				Response:         true,
				Opcode:           query.Header.Opcode,
				Authoritative:    true,
				RecursionDesired: query.Header.RecursionDesired,
				RCode:            dnsbl.RCodeFormErr,
			},
			Questions: query.Questions,
		}
		return appendPack(dst, resp)
	}
	q := query.Questions[0]
	flat := appendFlatName(append([]byte(nil), raw[:12]...), raw, 12)
	flat = binary.BigEndian.AppendUint16(flat, q.Type)
	flat = binary.BigEndian.AppendUint16(flat, q.Class)
	return r.answer(dst, flat, len(flat), []byte(foldName(q.Name)))
}

// appendFlatName appends the name at raw[off:] in uncompressed wire
// form, following its compression pointers, so every label keeps its
// exact bytes. raw must have passed dnsbl.Unpack, which walks the same
// path and bounds it.
func appendFlatName(dst, raw []byte, off int) []byte {
	for {
		l := int(raw[off])
		switch {
		case l == 0:
			return append(dst, 0)
		case l&0xc0 == 0xc0:
			off = (l&0x3f)<<8 | int(raw[off+1])
		default:
			dst = append(dst, raw[off:off+1+l]...)
			off += 1 + l
		}
	}
}

// appendPack serializes a response onto dst. When the echoed question
// cannot survive the dotted-string round trip, it answers a bare
// FORMERR with no question section rather than drop.
func appendPack(dst []byte, m *dnsbl.Message) []byte {
	b, err := m.Pack()
	if err != nil {
		fallback := &dnsbl.Message{Header: m.Header}
		fallback.Header.RCode = dnsbl.RCodeFormErr
		b, err = fallback.Pack()
		if err != nil {
			// A question-less, answer-less message always packs.
			panic("dnsblplane: packing empty response failed: " + err.Error())
		}
	}
	return append(dst, b...)
}
