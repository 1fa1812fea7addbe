package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"unicode/utf8"
)

// decodeStreamLine is /add/stream's fast path: it decodes the common
// line, a flat object of plain fields, in one pass over its bytes and
// reports whether it did. It accepts only an object whose keys are
// exactly "index", "doc", "url", "owner" or "text" (no escape in a
// key), with string values of printable ASCII and no escape, "doc" a
// plain non-negative integer that fits uint64, JSON whitespace between
// tokens, and the last of a repeated key winning. On anything else (a
// webspace line, another key or a case-folded one, a string with an
// escape or a byte outside printable ASCII, null, a boolean, a number
// where a string belongs, trailing bytes or a syntax error) it returns
// false and leaves sl alone, and the caller decodes the line with
// json.Unmarshal, so every error and every other line shape is
// encoding/json's. When it returns true, json.Unmarshal of the same
// bytes into a zero StreamLine yields *sl.
func decodeStreamLine(raw []byte, sl *StreamLine) bool {
	var out StreamLine
	i := skipSpace(raw, 0)
	if i == len(raw) || raw[i] != '{' {
		return false
	}
	i = skipSpace(raw, i+1)
	if i < len(raw) && raw[i] == '}' {
		i++
	} else {
		for {
			if i == len(raw) || raw[i] != '"' {
				return false
			}
			j := i + 1
			for j < len(raw) && raw[j] != '"' && raw[j] != '\\' {
				j++
			}
			if j == len(raw) || raw[j] != '"' {
				return false
			}
			key := raw[i+1 : j]
			if i = skipSpace(raw, j+1); i == len(raw) || raw[i] != ':' {
				return false
			}
			i = skipSpace(raw, i+1)
			ok := false
			switch string(key) {
			case "index":
				out.Index, i, ok = decodeString(raw, i)
			case "doc":
				out.Doc, i, ok = decodeUint(raw, i)
			case "url":
				out.URL, i, ok = decodeString(raw, i)
			case "owner":
				out.Owner, i, ok = decodeString(raw, i)
			case "text":
				out.Text, i, ok = decodeString(raw, i)
			}
			if !ok {
				return false
			}
			if i = skipSpace(raw, i); i == len(raw) {
				return false
			}
			if raw[i] == '}' {
				i++
				break
			}
			if raw[i] != ',' {
				return false
			}
			i = skipSpace(raw, i+1)
		}
	}
	if skipSpace(raw, i) != len(raw) {
		return false
	}
	*sl = out
	return true
}

// skipSpace returns the offset of the first byte at or after i that
// is not JSON whitespace.
func skipSpace(raw []byte, i int) int {
	for i < len(raw) && (raw[i] == ' ' || raw[i] == '\t' || raw[i] == '\n' || raw[i] == '\r') {
		i++
	}
	return i
}

// decodeUint decodes the digits of a JSON integer at raw[i:] with no
// sign or leading zero, failing on one that overflows uint64, and
// returns the offset after them. A fraction or exponent leaves the
// caller at a byte that is no ',' or '}', so the line defers.
func decodeUint(raw []byte, i int) (uint64, int, bool) {
	start := i
	var n uint64
	for ; i < len(raw) && '0' <= raw[i] && raw[i] <= '9'; i++ {
		d := uint64(raw[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		n = n*10 + d
	}
	if i == start || (raw[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	return n, i, true
}

// decodeString decodes the JSON string at raw[i:] and returns the
// offset after its closing quote. It takes only a string of printable
// ASCII without escapes, found and copied at memory speed; any other
// string fails, and the line defers to json.Unmarshal.
func decodeString(raw []byte, i int) (string, int, bool) {
	if i == len(raw) || raw[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	n := bytes.IndexByte(raw[start:], '"')
	if n < 0 {
		return "", 0, false
	}
	if s := raw[start : start+n]; bytes.IndexByte(s, '\\') < 0 && printableASCII(s) {
		return string(s), start + n + 1, true
	}
	return "", 0, false
}

// printableASCII reports whether every byte of s lies in [0x20, 0x80),
// eight bytes at a time: a byte at or above 0x80 sets its top bit in
// x, and one below 0x20 borrows in x-0x20…20 and sets it there (a
// borrow only spreads upward from a byte already caught).
func printableASCII(s []byte) bool {
	const low, top = 0x2020202020202020, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		if x := binary.LittleEndian.Uint64(s); (x|(x-low))&top != 0 {
			return false
		}
	}
	for _, c := range s {
		if c < ' ' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
