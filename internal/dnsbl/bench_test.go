package dnsbl

import "testing"

func BenchmarkPackUnpack(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1},
		Questions: []Question{{Name: "somedomain.com.dbl.example", Type: TypeA, Class: ClassIN}},
		Answers:   []Record{ARecord("somedomain.com.dbl.example", 300, 127, 0, 0, 2)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Unpack(raw); err != nil {
			b.Fatal(err)
		}
	}
}
