package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "plain", "a&b<c>d", "q\"b\\s", "\b\f\n\r\t\x00\x1f\x7f",
		"line\u2028para\u2029", "bad\xff\xc3", "é ☃ 𝄞"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
	})
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -3.25, 1e-7, 1e-6, 2e21, 1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, werr := json.Marshal(v)
		got, gerr := AppendFloat(nil, v)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("AppendFloat(%v) error %v, encoding/json %v", v, gerr, werr)
		}
		if werr == nil && string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", v, got, want)
		}
	})
}
