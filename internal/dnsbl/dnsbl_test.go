package dnsbl

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// ARecord builds an A record for the given IPv4 address bytes. The
// plane appends its answers in place; this builder and TXTRecord exist
// for the codec tests, the fuzz seed and BenchmarkPackUnpack.
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

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{
			ID: 0xbeef, Response: true, Authoritative: true,
			RecursionDesired: true, RCode: RCodeNoError,
		},
		Questions: []Question{{Name: "pills.com.dbl.example", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			ARecord("pills.com.dbl.example", 300, 127, 0, 0, 2),
			TXTRecord("pills.com.dbl.example", 300, "listed for spamming"),
		},
	}
	raw, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 0xbeef || !got.Header.Response || !got.Header.Authoritative {
		t.Fatalf("header: %+v", got.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "pills.com.dbl.example" {
		t.Fatalf("questions: %+v", got.Questions)
	}
	if len(got.Answers) != 2 {
		t.Fatalf("answers: %+v", got.Answers)
	}
	if !bytes.Equal(got.Answers[0].Data, []byte{127, 0, 0, 2}) {
		t.Fatalf("A rdata: %v", got.Answers[0].Data)
	}
	strs, err := TXTStrings(got.Answers[1].Data)
	if err != nil || len(strs) != 1 || strs[0] != "listed for spamming" {
		t.Fatalf("TXT: %v %v", strs, err)
	}
}

func TestUnpackRejectsTruncated(t *testing.T) {
	m := &Message{Questions: []Question{{Name: "a.com", Type: TypeA, Class: ClassIN}}}
	raw, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(raw); i++ {
		if _, err := Unpack(raw[:i]); err == nil {
			t.Fatalf("Unpack accepted %d-byte prefix", i)
		}
	}
}

func TestUnpackCompressedName(t *testing.T) {
	// Hand-build a response where the answer name is a pointer to the
	// question name.
	q := &Message{
		Header:    Header{ID: 7},
		Questions: []Question{{Name: "x.bl.test", Type: TypeA, Class: ClassIN}},
	}
	raw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Append one answer with a compression pointer to offset 12 (the
	// question name).
	raw[7] = 1 // ANCount = 1
	answer := []byte{0xc0, 12}
	answer = appendU16(answer, TypeA)
	answer = appendU16(answer, ClassIN)
	answer = appendU32(answer, 60)
	answer = appendU16(answer, 4)
	answer = append(answer, 127, 0, 0, 2)
	raw = append(raw, answer...)

	m, err := Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Name != "x.bl.test" {
		t.Fatalf("answers: %+v", m.Answers)
	}
}

func TestUnpackPointerLoop(t *testing.T) {
	raw := make([]byte, 12)
	raw[5] = 1 // QDCount = 1
	// Name that points at itself.
	raw = append(raw, 0xc0, 12)
	raw = append(raw, 0, 1, 0, 1)
	if _, err := Unpack(raw); !errors.Is(err, ErrPointerLoop) {
		t.Fatalf("err = %v, want pointer loop", err)
	}
}

func TestPackNameValidation(t *testing.T) {
	if _, err := packName("a..b"); err == nil {
		t.Error("empty label accepted")
	}
	long := string(bytes.Repeat([]byte("a"), 64))
	if _, err := packName(long + ".com"); err == nil {
		t.Error("64-byte label accepted")
	}
}

func TestTXTRecordLongString(t *testing.T) {
	text := string(bytes.Repeat([]byte("x"), 300))
	r := TXTRecord("a.com", 60, text)
	strs, err := TXTStrings(r.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(strs) != 2 || strs[0]+strs[1] != text {
		t.Fatalf("TXT split wrong: %d parts", len(strs))
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(id uint16, rcode uint8, labelByte uint8) bool {
		label := "d" + string(rune('a'+labelByte%26))
		m := &Message{
			Header:    Header{ID: id, Response: true, RCode: rcode & 0xf},
			Questions: []Question{{Name: label + ".com.bl.test", Type: TypeA, Class: ClassIN}},
		}
		raw, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(raw)
		if err != nil {
			return false
		}
		return got.Header.ID == id && got.Header.RCode == rcode&0xf &&
			got.Questions[0].Name == label+".com.bl.test"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClientTimeout(t *testing.T) {
	// A UDP socket that never answers.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	c := NewClient(pc.LocalAddr().String(), "dbl.example", 2)
	c.Timeout = 100 * time.Millisecond
	c.Retries = 1
	start := time.Now()
	if _, err := c.Listed("x.com"); err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
