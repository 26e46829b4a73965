// Package dnsbl speaks the DNS blacklist protocol — the operational
// delivery mechanism for feeds like the paper's dbl and uribl. Mail
// filters query "<spam-domain>.<zone>" and interpret an A record in
// 127.0.0.0/8 as "listed"; NXDOMAIN means "not listed".
//
// The package contains a from-scratch DNS wire-format codec (header,
// question, A and TXT resource records, including compression-pointer
// decoding) and a UDP client with timeouts and retries. Zones are
// served by internal/dnsblplane, which answers with this codec's wire
// shapes. Everything uses only the standard library.
package dnsbl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// DNS constants used by the codec.
const (
	TypeA   uint16 = 1
	TypeSOA uint16 = 6
	TypeTXT uint16 = 16
	ClassIN uint16 = 1

	// RCodes.
	RCodeNoError  uint8 = 0
	RCodeFormErr  uint8 = 1
	RCodeServFail uint8 = 2
	RCodeNXDomain uint8 = 3
	RCodeRefused  uint8 = 5
)

// ListedAddress is the conventional "listed" answer for domain
// blacklists (127.0.0.2).
var ListedAddress = [4]byte{127, 0, 0, 2}

// Errors returned by the codec.
var (
	ErrTruncatedMessage = errors.New("dnsbl: truncated message")
	ErrBadName          = errors.New("dnsbl: malformed domain name")
	ErrPointerLoop      = errors.New("dnsbl: compression pointer loop")
)

// Header is the 12-byte DNS message header.
type Header struct {
	ID uint16
	// Flags, most significant bit first: QR(1) Opcode(4) AA(1) TC(1)
	// RD(1) RA(1) Z(3) RCODE(4).
	Response         bool
	Opcode           uint8
	Authoritative    bool
	Truncated        bool
	RecursionDesired bool
	RecursionAvail   bool
	RCode            uint8
	QDCount, ANCount uint16
	NSCount, ARCount uint16
}

// flags packs the header flag word.
func (h *Header) flags() uint16 {
	var f uint16
	if h.Response {
		f |= 1 << 15
	}
	f |= uint16(h.Opcode&0xf) << 11
	if h.Authoritative {
		f |= 1 << 10
	}
	if h.Truncated {
		f |= 1 << 9
	}
	if h.RecursionDesired {
		f |= 1 << 8
	}
	if h.RecursionAvail {
		f |= 1 << 7
	}
	f |= uint16(h.RCode & 0xf)
	return f
}

func (h *Header) setFlags(f uint16) {
	h.Response = f&(1<<15) != 0
	h.Opcode = uint8(f >> 11 & 0xf)
	h.Authoritative = f&(1<<10) != 0
	h.Truncated = f&(1<<9) != 0
	h.RecursionDesired = f&(1<<8) != 0
	h.RecursionAvail = f&(1<<7) != 0
	h.RCode = uint8(f & 0xf)
}

// Question is one DNS question.
type Question struct {
	Name  string // dotted, no trailing dot
	Type  uint16
	Class uint16
}

// Record is one resource record. For TypeA, Data holds the 4-byte
// address; for TypeTXT, Data holds the already-encoded character
// strings (length-prefixed).
type Record struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// ARecord builds an A record for the given IPv4 address bytes.
func ARecord(name string, ttl uint32, a, b, c, d byte) Record {
	return Record{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl,
		Data: []byte{a, b, c, d}}
}

// TXTRecord builds a TXT record holding one character string (split if
// longer than 255 bytes).
func TXTRecord(name string, ttl uint32, text string) Record {
	var data []byte
	for len(text) > 255 {
		data = append(data, 255)
		data = append(data, text[:255]...)
		text = text[255:]
	}
	data = append(data, byte(len(text)))
	data = append(data, text...)
	return Record{Name: name, Type: TypeTXT, Class: ClassIN, TTL: ttl, Data: data}
}

// Message is a DNS message.
type Message struct {
	Header    Header
	Questions []Question
	Answers   []Record
}

// Pack serializes the message. Names are written uncompressed, which
// every resolver accepts.
func (m *Message) Pack() ([]byte, error) {
	buf := make([]byte, 0, 512)
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:], m.Header.ID)
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	binary.BigEndian.PutUint16(hdr[2:], h.flags())
	binary.BigEndian.PutUint16(hdr[4:], h.QDCount)
	binary.BigEndian.PutUint16(hdr[6:], h.ANCount)
	binary.BigEndian.PutUint16(hdr[8:], h.NSCount)
	binary.BigEndian.PutUint16(hdr[10:], h.ARCount)
	buf = append(buf, hdr[:]...)
	for _, q := range m.Questions {
		nb, err := packName(q.Name)
		if err != nil {
			return nil, err
		}
		buf = append(buf, nb...)
		buf = appendU16(buf, q.Type)
		buf = appendU16(buf, q.Class)
	}
	for _, r := range m.Answers {
		nb, err := packName(r.Name)
		if err != nil {
			return nil, err
		}
		buf = append(buf, nb...)
		buf = appendU16(buf, r.Type)
		buf = appendU16(buf, r.Class)
		buf = appendU32(buf, r.TTL)
		if len(r.Data) > 0xffff {
			return nil, fmt.Errorf("dnsbl: rdata too long (%d)", len(r.Data))
		}
		buf = appendU16(buf, uint16(len(r.Data)))
		buf = append(buf, r.Data...)
	}
	return buf, nil
}

// Unpack parses a DNS message.
func Unpack(data []byte) (*Message, error) {
	if len(data) < 12 {
		return nil, ErrTruncatedMessage
	}
	m := &Message{}
	m.Header.ID = binary.BigEndian.Uint16(data[0:])
	m.Header.setFlags(binary.BigEndian.Uint16(data[2:]))
	m.Header.QDCount = binary.BigEndian.Uint16(data[4:])
	m.Header.ANCount = binary.BigEndian.Uint16(data[6:])
	m.Header.NSCount = binary.BigEndian.Uint16(data[8:])
	m.Header.ARCount = binary.BigEndian.Uint16(data[10:])
	off := 12
	for i := 0; i < int(m.Header.QDCount); i++ {
		name, n, err := unpackName(data, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+4 > len(data) {
			return nil, ErrTruncatedMessage
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off:]),
			Class: binary.BigEndian.Uint16(data[off+2:]),
		})
		off += 4
	}
	for i := 0; i < int(m.Header.ANCount); i++ {
		name, n, err := unpackName(data, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+10 > len(data) {
			return nil, ErrTruncatedMessage
		}
		r := Record{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off:]),
			Class: binary.BigEndian.Uint16(data[off+2:]),
			TTL:   binary.BigEndian.Uint32(data[off+4:]),
		}
		rdlen := int(binary.BigEndian.Uint16(data[off+8:]))
		off += 10
		if off+rdlen > len(data) {
			return nil, ErrTruncatedMessage
		}
		r.Data = append([]byte(nil), data[off:off+rdlen]...)
		off += rdlen
		m.Answers = append(m.Answers, r)
	}
	return m, nil
}

// packName encodes a dotted name as DNS labels.
func packName(name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	var out []byte
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, fmt.Errorf("%w: label %q", ErrBadName, label)
			}
			out = append(out, byte(len(label)))
			out = append(out, label...)
		}
	}
	out = append(out, 0)
	if len(out) > 255 {
		return nil, fmt.Errorf("%w: name too long", ErrBadName)
	}
	return out, nil
}

// unpackName decodes a possibly compressed name starting at off,
// returning the dotted name and the offset just past the name field.
func unpackName(data []byte, off int) (string, int, error) {
	var labels []string
	end := -1 // offset after the name in the original stream
	hops := 0
	for {
		if off >= len(data) {
			return "", 0, ErrTruncatedMessage
		}
		b := int(data[off])
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			return strings.Join(labels, "."), end, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return "", 0, ErrTruncatedMessage
			}
			if end < 0 {
				end = off + 2
			}
			ptr := (b&0x3f)<<8 | int(data[off+1])
			if ptr >= off {
				return "", 0, ErrPointerLoop
			}
			off = ptr
			hops++
			if hops > 32 {
				return "", 0, ErrPointerLoop
			}
		case b&0xc0 != 0:
			return "", 0, fmt.Errorf("%w: reserved label type", ErrBadName)
		default:
			if off+1+b > len(data) {
				return "", 0, ErrTruncatedMessage
			}
			labels = append(labels, string(data[off+1:off+1+b]))
			off += 1 + b
			if len(labels) > 128 {
				return "", 0, fmt.Errorf("%w: too many labels", ErrBadName)
			}
		}
	}
}

// TXTStrings decodes the character strings of a TXT record's data.
func TXTStrings(data []byte) ([]string, error) {
	var out []string
	for off := 0; off < len(data); {
		n := int(data[off])
		off++
		if off+n > len(data) {
			return nil, ErrTruncatedMessage
		}
		out = append(out, string(data[off:off+n]))
		off += n
	}
	return out, nil
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
