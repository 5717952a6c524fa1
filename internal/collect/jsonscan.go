package collect

import (
	"encoding/hex"

	"polygraph/internal/fingerprint"
)

// scanJSONPayload decodes body into p when body is the frame the
// collection script's JSON.stringify({sid, ua, v}) and the in-repo
// clients send, and reports whether it did; p.UserAgent is then a view
// of body (fingerprint.Payload.BorrowUserAgent):
//
//	frame  = ws "{" ws [ member { ws "," ws member } ] ws "}" ws
//	member = `"sid"` ws ":" ws string | `"ua"` ws ":" ws string
//	       | `"v"` ws ":" ws "[" ws [ int { ws "," ws int } ] ws "]"
//	string = `"` { any byte 0x20–0x7F but `"` and `\` } `"`
//	int    = [ "-" ] ( "0" | "1"…"9" { "0"…"9" } ), at most 18 digits
//	ws     = { " " | "\t" | "\n" | "\r" }
//
// with each key at most once, in any order. Every such body is one
// encoding/json accepts, with the result built here. Anything else — an
// escape, a non-ASCII byte, another key or another spelling of these, a
// repeated key, null, a fraction or an exponent, a longer integer, bytes
// after the frame — is not this function's to judge: it returns false,
// having left p in an unspecified state, and the caller hands the body
// to encoding/json. It never rejects a body itself.
func scanJSONPayload(p *fingerprint.Payload, body []byte) bool {
	var (
		sid, ua []byte
		vals    = p.Values[:0]
		seen    [3]bool
		ok      bool
	)
	i := skipJSONSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	i = skipJSONSpace(body, i+1)
	if i == len(body) {
		return false
	}
	if body[i] == '}' {
		i++
	} else {
		for {
			var key []byte
			if key, i, ok = scanJSONString(body, i); !ok {
				return false
			}
			i = skipJSONSpace(body, i)
			if i == len(body) || body[i] != ':' {
				return false
			}
			i = skipJSONSpace(body, i+1)
			var field int
			switch string(key) {
			case "sid":
				field = 0
				sid, i, ok = scanJSONString(body, i)
			case "ua":
				field = 1
				ua, i, ok = scanJSONString(body, i)
			case "v":
				field = 2
				vals, i, ok = scanJSONInts(vals, body, i)
			default:
				return false
			}
			if !ok || seen[field] {
				return false
			}
			seen[field] = true
			i = skipJSONSpace(body, i)
			if i == len(body) {
				return false
			}
			if body[i] == '}' {
				i++
				break
			}
			if body[i] != ',' {
				return false
			}
			i = skipJSONSpace(body, i+1)
		}
	}
	if skipJSONSpace(body, i) != len(body) {
		return false
	}
	*p = fingerprint.Payload{Values: vals}
	p.BorrowUserAgent(ua)
	// As decodeJSONPayload does after encoding/json: a sid that is not
	// 32 hex digits leaves the session ID zero.
	var id [fingerprint.SessionIDSize]byte
	if len(sid) == hex.EncodedLen(len(id)) {
		if _, err := hex.Decode(id[:], sid); err == nil {
			p.SessionID = id
		}
	}
	return true
}

// skipJSONSpace returns the index of the first byte of b at or after i
// that is not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanJSONString reads the string literal that starts at b[i] and
// returns its contents and the index after its closing quote.
func scanJSONString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// scanJSONInts reads the array of integers that starts at b[i],
// appending them to dst, and returns the index after its "]".
func scanJSONInts(dst []int64, b []byte, i int) (vals []int64, next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return dst, i, false
	}
	i = skipJSONSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst, i + 1, true
	}
	for {
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		first := i
		var v int64
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			v = v*10 + int64(b[i]-'0')
			i++
		}
		// 18 digits cannot overflow; a leading zero stands alone.
		if n := i - first; n == 0 || n > 18 || (b[first] == '0' && n > 1) {
			return dst, i, false
		}
		if neg {
			v = -v
		}
		dst = append(dst, v)
		i = skipJSONSpace(b, i)
		if i == len(b) {
			return dst, i, false
		}
		if b[i] == ']' {
			return dst, i + 1, true
		}
		if b[i] != ',' {
			return dst, i, false
		}
		i = skipJSONSpace(b, i+1)
	}
}
