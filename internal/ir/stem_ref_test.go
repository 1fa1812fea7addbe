package ir

// The Porter stemmer as it stood before its rule steps were indexed by
// final letter: every step tries each rule of its table in order and
// rewrites into a fresh slice. It is kept only as the differential
// oracle for FuzzStem and TestStemMatchesReference, which hold the
// production kernel in stem.go byte-identical to it.

// refPorter runs the stemmer's steps over w, which it may overwrite.
func refPorter(w []byte) []byte {
	w = refStep1a(w)
	w = refStep1b(w)
	w = refStep1c(w)
	w = refStep2(w)
	w = refStep3(w)
	w = refStep4(w)
	w = refStep5a(w)
	w = refStep5b(w)
	return w
}

// refIsCons reports whether w[i] acts as a consonant.
func refIsCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !refIsCons(w, i-1)
	default:
		return true
	}
}

// refMeasure returns m, the number of VC sequences in w[:len(w)].
func refMeasure(w []byte) int {
	n := len(w)
	i := 0
	// skip initial consonants
	for i < n && refIsCons(w, i) {
		i++
	}
	m := 0
	for {
		// skip vowels
		for i < n && !refIsCons(w, i) {
			i++
		}
		if i >= n {
			return m
		}
		// skip consonants
		for i < n && refIsCons(w, i) {
			i++
		}
		m++
	}
}

// refHasVowel reports whether w contains a vowel.
func refHasVowel(w []byte) bool {
	for i := range w {
		if !refIsCons(w, i) {
			return true
		}
	}
	return false
}

// refEndsDoubleCons reports whether w ends with a double consonant.
func refEndsDoubleCons(w []byte) bool {
	n := len(w)
	if n < 2 || w[n-1] != w[n-2] {
		return false
	}
	return refIsCons(w, n-1)
}

// refEndsCVC reports whether w ends consonant-vowel-consonant where the
// final consonant is not w, x or y.
func refEndsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !refIsCons(w, n-3) || refIsCons(w, n-2) || !refIsCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func refHasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// refReplaceSuffix replaces suffix s with r if the stem before s has
// measure > m. Returns the new word and whether a replacement happened.
func refReplaceSuffix(w []byte, s, r string, m int) ([]byte, bool) {
	if !refHasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if refMeasure(stem) <= m {
		return w, true // suffix matched; rule consumed but no change
	}
	return append(append([]byte{}, stem...), r...), true
}

func refStep1a(w []byte) []byte {
	switch {
	case refHasSuffix(w, "sses"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ies"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ss"):
		return w
	case refHasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func refStep1b(w []byte) []byte {
	if refHasSuffix(w, "eed") {
		if refMeasure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case refHasSuffix(w, "ed") && refHasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case refHasSuffix(w, "ing") && refHasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case refHasSuffix(stem, "at"), refHasSuffix(stem, "bl"), refHasSuffix(stem, "iz"):
		return append(stem, 'e')
	case refEndsDoubleCons(stem) && !refHasSuffix(stem, "l") && !refHasSuffix(stem, "s") && !refHasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case refMeasure(stem) == 1 && refEndsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func refStep1c(w []byte) []byte {
	if refHasSuffix(w, "y") && refHasVowel(w[:len(w)-1]) {
		w = append(w[:len(w)-1], 'i')
	}
	return w
}

var refStep2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func refStep2(w []byte) []byte {
	for _, rule := range refStep2Rules {
		if nw, ok := refReplaceSuffix(w, rule.s, rule.r, 0); ok {
			return nw
		}
	}
	return w
}

var refStep3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func refStep3(w []byte) []byte {
	for _, rule := range refStep3Rules {
		if nw, ok := refReplaceSuffix(w, rule.s, rule.r, 0); ok {
			return nw
		}
	}
	return w
}

var refStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func refStep4(w []byte) []byte {
	for _, s := range refStep4Suffixes {
		if !refHasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if refMeasure(stem) > 1 {
			return stem
		}
		return w
	}
	if refHasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if refMeasure(stem) > 1 && (refHasSuffix(stem, "s") || refHasSuffix(stem, "t")) {
			return stem
		}
	}
	return w
}

func refStep5a(w []byte) []byte {
	if !refHasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := refMeasure(stem)
	if m > 1 || (m == 1 && !refEndsCVC(stem)) {
		return stem
	}
	return w
}

func refStep5b(w []byte) []byte {
	if refMeasure(w) > 1 && refEndsDoubleCons(w) && refHasSuffix(w, "ll") {
		return w[:len(w)-1]
	}
	return w
}
