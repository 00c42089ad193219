// Package jsonenc holds the building blocks of the hand-rolled result
// encoders. AppendString and AppendFloat produce exactly
// encoding/json's output: the HTML-safe string escaping json.Marshal
// applies (<, >, & and U+2028/U+2029 escaped, invalid UTF-8 replaced by
// U+FFFD) and its ES6-style float formatting, so the encoders' bytes
// match the reflective encoders they replaced. Spans and Presize serve
// the encoders' single output buffer: repeated terms copy their first
// encoding, and the buffer grows once to the predicted response size.
package jsonenc

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// shortBF reports whether the toolchain's encoding/json writes \b and
// \f as two-character escapes (Go 1.22 and later) rather than \u0008
// and \u000c; AppendString follows it so output stays identical to
// json.Marshal on every supported toolchain.
var shortBF = func() bool {
	b, err := json.Marshal("\b")
	return err == nil && string(b) == `"\b"`
}()

// htmlSafe reports, per ASCII byte, whether it is written unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a quoted JSON string.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch {
			case b == '\\' || b == '"':
				dst = append(dst, '\\', b)
			case b == '\b' && shortBF:
				dst = append(dst, '\\', 'b')
			case b == '\f' && shortBF:
				dst = append(dst, '\\', 'f')
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as a JSON number formatted like json.Marshal
// formats a float64. NaN and infinities have no JSON form and are an
// error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("jsonenc: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Spans memoizes, per key, the byte range of dst where a value was
// first encoded, so a repeated value copies those bytes instead of
// encoding them again. It is valid for one output buffer, which must
// only grow by appending.
type Spans struct{ at map[int64]uint64 }

// NewSpans returns Spans sized for about hint distinct keys.
func NewSpans(hint int) Spans { return Spans{at: make(map[int64]uint64, hint)} }

// Append appends the encoding of key's value, calling enc only the first
// time the key is seen.
func (s *Spans) Append(dst []byte, key int64, enc func([]byte) []byte) []byte {
	if sp, ok := s.at[key]; ok {
		off, n := sp>>32, sp&math.MaxUint32
		return append(dst, dst[off:off+n]...)
	}
	start := len(dst)
	dst = enc(dst)
	if n := len(dst) - start; start <= math.MaxUint32 && n <= math.MaxUint32 {
		s.at[key] = uint64(start)<<32 | uint64(n)
	}
	return dst
}

// Presize is called once done of total rows have been appended to dst
// after offset start; it grows dst once to hold the remaining rows at
// their average size so far, plus an eighth, instead of doubling its
// way there.
func Presize(dst []byte, start, done, total int) []byte {
	if done <= 0 || total <= done {
		return dst
	}
	rest := (len(dst) - start) / done * (total - done)
	need := len(dst) + rest + rest/8 + 64
	if cap(dst) >= need {
		return dst
	}
	grown := make([]byte, len(dst), need)
	copy(grown, dst)
	return grown
}
