package ir

import "strings"

// stopWords is the stop list applied before terms enter the
// vocabulary; the paper: "Stop terms are expected to be filtered out."
var stopWords = map[string]bool{
	"a": true, "about": true, "above": true, "after": true, "again": true,
	"all": true, "also": true, "am": true, "an": true, "and": true,
	"any": true, "are": true, "as": true, "at": true, "be": true,
	"because": true, "been": true, "before": true, "being": true,
	"below": true, "between": true, "both": true, "but": true, "by": true,
	"can": true, "could": true, "did": true, "do": true, "does": true,
	"doing": true, "down": true, "during": true, "each": true, "few": true,
	"for": true, "from": true, "further": true, "had": true, "has": true,
	"have": true, "having": true, "he": true, "her": true, "here": true,
	"hers": true, "him": true, "his": true, "how": true, "i": true,
	"if": true, "in": true, "into": true, "is": true, "it": true,
	"its": true, "just": true, "me": true, "more": true, "most": true,
	"my": true, "no": true, "nor": true, "not": true, "now": true,
	"of": true, "off": true, "on": true, "once": true, "only": true,
	"or": true, "other": true, "our": true, "out": true, "over": true,
	"own": true, "same": true, "she": true, "should": true, "so": true,
	"some": true, "such": true, "than": true, "that": true, "the": true,
	"their": true, "them": true, "then": true, "there": true,
	"these": true, "they": true, "this": true, "those": true,
	"through": true, "to": true, "too": true, "under": true, "until": true,
	"up": true, "very": true, "was": true, "we": true, "were": true,
	"what": true, "when": true, "where": true, "which": true,
	"while": true, "who": true, "whom": true, "why": true, "will": true,
	"with": true, "would": true, "you": true, "your": true,
}

// IsStopWord reports whether the (lower-cased) word is on the stop list.
func IsStopWord(w string) bool { return stopWords[strings.ToLower(w)] }

// isTokenByte reports whether c belongs to a word token. Every byte of
// a multi-byte rune is ≥ 0x80, so scanning bytes separates tokens
// exactly where scanning runes would.
func isTokenByte(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

// nextToken returns the first word token of the lower-cased text at or
// after offset i, and the offset just past it; the token is empty when
// none remains. Tokens are substrings of low, so scanning allocates
// nothing.
func nextToken(low string, i int) (tok string, next int) {
	for i < len(low) && !isTokenByte(low[i]) {
		i++
	}
	start := i
	for i < len(low) && isTokenByte(low[i]) {
		i++
	}
	return low[start:i], i
}

// Tokenize splits text into lower-case word tokens; anything that is
// not a letter or digit separates tokens.
func Tokenize(text string) []string {
	var out []string
	low := strings.ToLower(text)
	for tok, i := nextToken(low, 0); tok != ""; tok, i = nextToken(low, i) {
		out = append(out, strings.Clone(tok))
	}
	return out
}

// nextStem pushes lower-cased text through the tokenizer, the stop
// filter and the stemmer — exactly the pipeline the central database
// server applies to both documents and query terms in the paper. It
// returns the first token at or after offset i that is not a stop
// word, its stem built in buf, and the offset just past the token; the
// token is empty when none remains. Passing each stem back as the next
// call's buf reuses one scratch for a whole text, so a caller's stack
// scratch stays on the stack.
func nextStem(low string, i int, buf []byte) (stem []byte, tok string, next int) {
	for {
		if tok, i = nextToken(low, i); tok == "" {
			return buf, "", i
		}
		if !stopWords[tok] {
			return stemInto(buf, tok), tok, i
		}
	}
}

// queryStem returns a query's stem as a string. A stem that is a prefix
// of its token (Porter mostly strips suffixes) is a substring of the
// lower-cased query instead of a copy: right for a query, which
// outlives its stems, and wrong for a document, whose text a vocabulary
// key would pin.
func queryStem(stem []byte, tok string) string {
	if len(stem) <= len(tok) && tok[:len(stem)] == string(stem) {
		return tok[:len(stem)]
	}
	return string(stem)
}

// Terms returns the stems of text, in text order, each owning its
// bytes.
func Terms(text string) []string {
	var out []string
	low := strings.ToLower(text)
	for stem, tok, i := nextStem(low, 0, nil); tok != ""; stem, tok, i = nextStem(low, i, stem) {
		out = append(out, string(stem))
	}
	return out
}

// QueryStems appends the distinct stems of a query, in first-occurrence
// order, to dst. Stems may alias the query, and duplicates are dropped
// by a linear scan — a query is a handful of words — so resolving a
// typical query into a reused dst allocates nothing.
func QueryStems(dst []string, query string) []string {
	var scratch [32]byte // longer stems spill to the heap
	low := strings.ToLower(query)
next:
	for stem, tok, i := nextStem(low, 0, scratch[:0]); tok != ""; stem, tok, i = nextStem(low, i, stem) {
		// Not slices.Contains: a generic callee makes dst's backing
		// array — the caller's stack scratch — escape.
		for _, have := range dst {
			if have == string(stem) {
				continue next
			}
		}
		dst = append(dst, queryStem(stem, tok))
	}
	return dst
}
