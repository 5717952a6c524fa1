// Package jsonappend holds the two value encoders an append-style JSON
// writer cannot get from strconv alone: strings and floats, byte for
// byte as encoding/json's Marshal writes them (HTML-escaping on). The
// audit ledger's record encoder and the core types it embeds are built
// on them, so what lands on disk stays readable by json.Unmarshal and
// identical to what json.Marshal produced before the encoder existed.
// Integers and booleans are strconv.AppendInt / AppendBool as they are.
package jsonappend

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// String appends s as a JSON string literal: `"`, `\` and the control
// bytes escaped, `<`, `>`, `&`, U+2028 and U+2029 written as \u escapes,
// and every invalid UTF-8 byte replaced by \ufffd.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f as a JSON number in encoding/json's ES6-style format:
// 'f' notation inside [1e-6, 1e21), exponent notation outside it with
// the exponent's leading zero dropped. NaN and the infinities have no
// JSON form; they return the error json.Marshal returns for them.
func Float(dst []byte, f float64) ([]byte, error) {
	// Most numbers in a record (feature counts, centroid indices) are
	// small integers: their 'f' form is the integer's digits. Negative
	// zero is not among them — it prints "-0".
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10), nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst, nil
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
}
