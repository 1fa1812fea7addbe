package ir

import (
	"slices"
	"strings"
	"testing"
)

// Standard Porter test vectors from the original 1980 paper.
func TestStemVectors(t *testing.T) {
	cases := map[string]string{
		"caresses": "caress", "ponies": "poni", "ties": "ti",
		"caress": "caress", "cats": "cat",
		"feed": "feed", "agreed": "agre", "plastered": "plaster",
		"bled": "bled", "motoring": "motor", "sing": "sing",
		"conflated": "conflat", "troubled": "troubl", "sized": "size",
		"hopping": "hop", "tanned": "tan", "falling": "fall",
		"hissing": "hiss", "fizzed": "fizz", "failing": "fail",
		"filing": "file",
		"happy":  "happi", "sky": "sky",
		"relational": "relat", "conditional": "condit", "rational": "ration",
		"valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
		"radicalli": "radic", "differentli": "differ", "vileli": "vile",
		"analogousli": "analog", "vietnamization": "vietnam",
		"predication": "predic", "operator": "oper", "feudalism": "feudal",
		"decisiveness": "decis", "hopefulness": "hope",
		"callousness": "callous", "formaliti": "formal",
		"sensitiviti": "sensit", "sensibiliti": "sensibl",
		"triplicate": "triplic", "formative": "form", "formalize": "formal",
		"electriciti": "electr", "electrical": "electr", "hopeful": "hope",
		"goodness": "good",
		"revival":  "reviv", "allowance": "allow", "inference": "infer",
		"airliner": "airlin", "gyroscopic": "gyroscop",
		"adjustable": "adjust", "defensible": "defens", "irritant": "irrit",
		"replacement": "replac", "adjustment": "adjust",
		"dependent": "depend", "adoption": "adopt", "communism": "commun",
		"activate": "activ", "homologous": "homolog", "effective": "effect",
		"bowdlerize": "bowdler",
		"probate":    "probat", "rate": "rate", "cease": "ceas",
		"controll": "control", "roll": "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "is", "be"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, short words must pass through", w, got)
		}
	}
}

func TestStemIdempotentOnDomainWords(t *testing.T) {
	// Words from the running example; stemming twice must be stable for
	// the vocabulary to be well defined.
	for _, w := range []string{"winner", "champion", "tennis", "seles", "player", "approaches"} {
		once := Stem(w)
		if twice := Stem(once); twice != once {
			t.Errorf("Stem not stable on %q: %q -> %q", w, once, twice)
		}
	}
}

func TestStemCaseInsensitive(t *testing.T) {
	if Stem("Winner") != Stem("winner") {
		t.Error("stemming must lower-case")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Monica Seles, winner-of 1996!")
	want := []string{"monica", "seles", "winner", "of", "1996"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty text should yield no tokens")
	}
	if len(Tokenize("...!!!")) != 0 {
		t.Fatal("punctuation-only text should yield no tokens")
	}
}

func TestTermsAppliesStopAndStem(t *testing.T) {
	got := Terms("The winner of the championships")
	// "the", "of" stopped; "winner" -> winner, "championships" -> championship...
	for _, term := range got {
		if IsStopWord(term) {
			t.Errorf("stop word %q survived", term)
		}
	}
	if len(got) != 2 {
		t.Fatalf("Terms = %v, want 2 terms", got)
	}
	if got[0] != "winner" {
		t.Errorf("Terms[0] = %q", got[0])
	}
}

func TestIsStopWord(t *testing.T) {
	if !IsStopWord("The") || !IsStopWord("and") {
		t.Error("common stop words not recognised")
	}
	if IsStopWord("tennis") {
		t.Error("tennis is not a stop word")
	}
}

// refStem is the reference pipeline's stem of one lower-case token:
// tokens of one or two letters pass through, as stemInto does.
func refStem(tok string) string {
	if len(tok) <= 2 {
		return tok
	}
	return string(refPorter([]byte(tok)))
}

// FuzzStem holds the production stemmer and pipeline byte-identical to
// the reference stemmer: every token of the text, the text as one word
// through Stem, and the whole text through Terms.
func FuzzStem(f *testing.F) {
	for _, s := range []string{
		"relational conditional rational", "Hopping tanned FALLING fizzed",
		"sensibiliti electriciti controll roll", "w00017 w12345 boxing bowed",
		"The winner of the championships", "naïve café façade", "x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		low := strings.ToLower(text)
		var want []string
		for tok, i := nextToken(low, 0); tok != ""; tok, i = nextToken(low, i) {
			if got, ref := string(porter([]byte(tok))), string(refPorter([]byte(tok))); got != ref {
				t.Fatalf("porter(%q) = %q, reference %q", tok, got, ref)
			}
			if !stopWords[tok] {
				want = append(want, refStem(tok))
			}
		}
		if got, ref := Stem(text), refStem(low); got != ref {
			t.Fatalf("Stem(%q) = %q, reference %q", text, got, ref)
		}
		if got := Terms(text); !slices.Equal(got, want) {
			t.Fatalf("Terms(%q) = %q, reference %q", text, got, want)
		}
	})
}

// TestStemMatchesReference requires the production stemmer to agree
// with the reference on a word set that reaches every rule: stem
// shapes of measure 0–3 (and the consonant-vowel-consonant endings in
// w, x and y that endsCVC excepts) followed by every suffix and
// replacement the rules name and an optional inflection, plus every
// word of three and four letters over the letters the rules use.
func TestStemMatchesReference(t *testing.T) {
	prefixes := []string{
		"", "b", "tr", "a", "y", "oa", "ee", // measure 0
		"hop", "tan", "fil", "bow", "box", "bay", "troub", "oat", "sky", "rat", // measure 1
		"motor", "hesit", "conflat", "valen", "plast", "yell", "ceas", // measure 2
		"general", "electr", "adjustab", "sensibil", "radical", "vietnamiz", // measure 3+
	}
	suffixes := []string{
		"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
		"ion", "sion", "tion", "e", "ll", "l",
	}
	for _, r := range refStep2Rules {
		suffixes = append(suffixes, r.s, r.r)
	}
	for _, r := range refStep3Rules {
		suffixes = append(suffixes, r.s, r.r)
	}
	suffixes = append(suffixes, refStep4Suffixes...)
	endings := []string{"", "s", "es", "ed", "ing", "ly", "e", "y"}

	var words []string
	for _, p := range prefixes {
		for _, s := range suffixes {
			for _, e := range endings {
				words = append(words, p+s+e)
			}
		}
	}
	// The 19 letters the rules name, plus w and x.
	const letters = "abcdefgilmnorstuvyz" + "wx"
	w := make([]byte, 4)
	for _, n := range []int{3, 4} {
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				words = append(words, string(w[:n]))
				return
			}
			for j := range len(letters) {
				w[i] = letters[j]
				rec(i + 1)
			}
		}
		rec(0)
	}

	diff := 0
	for _, word := range words {
		got, ref := string(porter([]byte(word))), string(refPorter([]byte(word)))
		if got != ref {
			if diff++; diff <= 10 {
				t.Errorf("porter(%q) = %q, reference %q", word, got, ref)
			}
		}
	}
	if diff > 0 {
		t.Fatalf("%d of %d words stem differently", diff, len(words))
	}
	t.Logf("%d words agree", len(words))
}
