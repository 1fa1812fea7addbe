package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Everything the benchmark sends to the program is a pure function of
// the seed and a size: corpus, query pools, article ids. No workload
// name and no seed ever reaches dlserve — it sees only these bytes.

// Independent random streams of one seed. Each input kind draws from
// its own stream so that changing the size of one (say the query pool)
// leaves the others byte-identical.
const (
	streamCorpus = iota + 1
	streamQueries
	streamHot
	streamArticles
	streamPlayers
	streamIngest
	streamFresh
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1) — exponent 1.0, which
// math/rand's Zipf (s > 1 only) cannot express.
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// vocabulary words are w00000…; the digits keep the stemmer from
// folding two of them together.
func word(k int) string { return fmt.Sprintf("w%05d", k) }

// text is one document body: n Zipf-drawn words.
func (z *zipf) text(r *rand.Rand, n int) string {
	var sb strings.Builder
	sb.Grow(n * 7)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(word(z.draw(r)))
	}
	return sb.String()
}

// corpus returns the bodies of the plain-document corpus.
func corpus(seed int64, stream int, sz sizes, n int) []string {
	r, z := rngFor(seed, stream), newZipf(sz.Vocab)
	docs := make([]string, n)
	for i := range docs {
		docs[i] = z.text(r, sz.TermsPerDoc)
	}
	return docs
}

// plainNDJSON renders bodies as /add/stream lines for the sole index
// of a T-ir coordinator; the coordinator assigns the oids 1, 2, … in
// line order.
func plainNDJSON(docs []string) []byte {
	var b bytes.Buffer
	for _, d := range docs {
		b.WriteString(`{"text":"`)
		b.WriteString(d) // words are [a-z0-9 ]: nothing to escape
		b.WriteString("\"}\n")
	}
	return b.Bytes()
}

// article is one synthetic Article webspace object with its body.
type article struct {
	ID, Title, Body string
}

func articleID(i int) string { return fmt.Sprintf("a%06d", i) }

// articles returns n articles numbered from first. Bodies come from
// the given stream, so the preloaded set and the mixed_rw writer's
// fresh articles never share a random sequence.
func articles(seed int64, stream int, sz sizes, first, n int) []article {
	r, z := rngFor(seed, stream), newZipf(sz.Vocab)
	out := make([]article, n)
	for i := range out {
		id := articleID(first + i)
		out[i] = article{ID: id, Title: "title " + id, Body: z.text(r, sz.TermsPerDoc)}
	}
	return out
}

// articleNDJSON renders articles the way T-engine wants them: every
// webspace line first, then every owned-content line. Interleaving
// the two kinds would make the engine rebuild its derived access paths
// once per article (OIDOf after an invalidating AddDocument).
func articleNDJSON(as []article) []byte {
	var b bytes.Buffer
	for _, a := range as {
		fmt.Fprintf(&b, `{"webspace":{"URL":"lib/%s","Objects":[{"Class":"Article","ID":"%s","Attrs":{"title":"%s"}}]}}`+"\n",
			a.ID, a.ID, a.Title)
	}
	for _, a := range as {
		fmt.Fprintf(&b, `{"index":"%s","owner":"Article:%s","text":"%s"}`+"\n", articleIndex, a.ID, a.Body)
	}
	return b.Bytes()
}

// player is one synthetic Player object for the core.* join probes.
type player struct {
	ID, Name, Gender, Hand, History string
	Covered                         []string // article ids
}

func players(seed int64, sz sizes, n, nArticles int) []player {
	r, z := rngFor(seed, streamPlayers), newZipf(sz.Vocab)
	out := make([]player, n)
	for i := range out {
		p := player{
			ID:      "p" + strconv.Itoa(i),
			Name:    "player " + strconv.Itoa(i),
			Gender:  []string{"female", "male"}[r.Intn(2)],
			Hand:    []string{"left", "right"}[r.Intn(2)],
			History: z.text(r, sz.TermsPerDoc),
		}
		for j := 0; j < 4; j++ {
			p.Covered = append(p.Covered, articleID(r.Intn(nArticles)))
		}
		out[i] = p
	}
	return out
}

// queries returns n distinct queries of 2–4 Zipf-drawn words. A draw
// that repeats an earlier query is redrawn, so a pool larger than a
// run's request count means no query recurs within the run.
func queries(seed int64, stream int, sz sizes, n int) []string {
	r, z := rngFor(seed, stream), newZipf(sz.Vocab)
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		q := z.text(r, 2+r.Intn(3))
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// firstTwo keeps the first two words of a search query (every query
// has at least two).
func firstTwo(q string) string {
	w := strings.Fields(q)
	return w[0] + " " + w[1]
}

// containsQuery is the single /query shape of mixed_rw; its two words
// come from a search query so both op kinds draw from one pool.
func containsQuery(q string) string {
	return "SELECT a.title FROM Article a WHERE contains(a.body, '" + firstTwo(q) + "') LIMIT 10"
}

// dueTimes is an open-loop arrival schedule: n arrivals at a fixed
// rate, in seconds from the start of the phase.
func dueTimes(ratePerSec float64, seconds float64) []float64 {
	n := int(math.Floor(ratePerSec * seconds))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / ratePerSec
	}
	return out
}
