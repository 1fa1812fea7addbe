// Package ir implements the paper's full-text retrieval support: the
// T/D/DT/TF/IDF relations transparently integrated into the database
// ([VW99]) — T and IDF as BATs, D as dense document columns, DT/TF as
// term-clustered posting columns — a tf·idf ranking variant derived from the probabilistic
// retrieval model of [Hie98], horizontal fragmentation of the TF/DT
// relations on descending idf, and top-N query evaluation with
// a-priori fragment cut-off and the quality estimate of [BHC+01].
package ir

import "strings"

// Stem reduces an English word to its stem with the classic Porter
// algorithm (1980). The paper stores "the corresponding stems" in the
// term relation T; this is the standard stemmer that implies.
func Stem(word string) string {
	var scratch [32]byte // longer words spill to the heap
	return string(stemInto(scratch[:0], strings.ToLower(word)))
}

// stemInto appends the stem of one lower-case token to dst[:0] and
// returns it. Tokens of one or two letters are their own stem.
func stemInto(dst []byte, tok string) []byte {
	w := append(dst[:0], tok...)
	if len(w) <= 2 {
		return w
	}
	return porter(w)
}

// porter runs the stemmer's steps over w, which it may overwrite.
func porter(w []byte) []byte {
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return w
}

// isCons reports whether w[i] acts as a consonant.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	default:
		return true
	}
}

// measure returns m, the number of VC sequences in w[:len(w)].
func measure(w []byte) int {
	n := len(w)
	i := 0
	// skip initial consonants
	for i < n && isCons(w, i) {
		i++
	}
	m := 0
	for {
		// skip vowels
		for i < n && !isCons(w, i) {
			i++
		}
		if i >= n {
			return m
		}
		// skip consonants
		for i < n && isCons(w, i) {
			i++
		}
		m++
	}
}

// hasVowel reports whether w contains a vowel.
func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a double consonant.
func endsDoubleCons(w []byte) bool {
	n := len(w)
	if n < 2 || w[n-1] != w[n-2] {
		return false
	}
	return isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the
// final consonant is not w, x or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix compares from the last byte, so a word that does not end
// in s is usually rejected after one compare.
func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	w = w[len(w)-len(s):]
	for i := len(s) - 1; i >= 0; i-- {
		if w[i] != s[i] {
			return false
		}
	}
	return true
}

// replaceSuffix replaces suffix s with r if the stem before s has
// measure > m. Returns the new word and whether the suffix matched (a
// match consumes the rule even when the measure leaves w unchanged).
// No replacement is longer than its suffix, so w is rewritten in place.
func replaceSuffix(w []byte, s, r string, m int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) <= m {
		return w, true
	}
	return append(stem, r...), true
}

// suffixRule rewrites suffix s to r.
type suffixRule struct{ s, r string }

func (r suffixRule) suffix() string { return r.s }

// byFinal indexes a rule table by the final letter of each suffix,
// keeping the table's order within a letter. Two suffixes that can
// both match a word end in the same letter, so trying only the word's
// final letter's rules, in table order, picks the rule the whole table
// would.
type byFinal[R any] [26][]R

func indexByFinal[R any](table []R, suffix func(R) string) *byFinal[R] {
	var idx byFinal[R]
	for _, r := range table {
		s := suffix(r)
		c := s[len(s)-1] - 'a'
		idx[c] = append(idx[c], r)
	}
	return &idx
}

// of returns the rules whose suffix ends in w's final letter.
func (idx *byFinal[R]) of(w []byte) []R {
	if len(w) == 0 {
		return nil
	}
	if c := w[len(w)-1] - 'a'; c < 26 {
		return idx[c]
	}
	return nil
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleCons(stem) && !hasSuffix(stem, "l") && !hasSuffix(stem, "s") && !hasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		w = append(w[:len(w)-1], 'i')
	}
	return w
}

var step2Rules = []suffixRule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

var step3Rules = []suffixRule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

var (
	step2Index = indexByFinal(step2Rules, suffixRule.suffix)
	step3Index = indexByFinal(step3Rules, suffixRule.suffix)
	step4Index = indexByFinal(step4Suffixes, func(s string) string { return s })
)

func step2(w []byte) []byte {
	for _, rule := range step2Index.of(w) {
		if nw, ok := replaceSuffix(w, rule.s, rule.r, 0); ok {
			return nw
		}
	}
	return w
}

func step3(w []byte) []byte {
	for _, rule := range step3Index.of(w) {
		if nw, ok := replaceSuffix(w, rule.s, rule.r, 0); ok {
			return nw
		}
	}
	return w
}

func step4(w []byte) []byte {
	for _, s := range step4Index.of(w) {
		if nw, ok := replaceSuffix(w, s, "", 1); ok {
			return nw
		}
	}
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if measure(stem) > 1 && (hasSuffix(stem, "s") || hasSuffix(stem, "t")) {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

// step5b drops one l of a final ll (a double consonant) when the
// measure exceeds 1; the suffix is tested first because it is cheap.
func step5b(w []byte) []byte {
	if hasSuffix(w, "ll") && measure(w) > 1 {
		return w[:len(w)-1]
	}
	return w
}
