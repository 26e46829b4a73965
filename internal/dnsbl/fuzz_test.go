package dnsbl

import "testing"

// FuzzUnpack ensures the DNS decoder never panics or over-reads, and
// that messages it accepts can be re-packed.
func FuzzUnpack(f *testing.F) {
	good := &Message{
		Header:    Header{ID: 1},
		Questions: []Question{{Name: "a.com.bl.test", Type: TypeA, Class: ClassIN}},
		Answers:   []Record{ARecord("a.com.bl.test", 60, 127, 0, 0, 2)},
	}
	raw, _ := good.Pack()
	f.Add(raw)
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode (names may have been
		// decompressed, so sizes can differ, but packing must not
		// fail for valid label lengths).
		if _, err := m.Pack(); err != nil {
			// Names with >63-byte labels cannot occur in decoded
			// output; any pack failure is a bug.
			t.Fatalf("re-pack failed: %v", err)
		}
	})
}
