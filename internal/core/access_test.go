package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dlsearch/internal/site"
	"dlsearch/internal/webspace"
)

// assertRebuilt fails unless the engine's maintained access paths
// deep-equal a fresh rebuild from the store.
func assertRebuilt(t *testing.T, e *Engine, when string) {
	t.Helper()
	maintained, rebuilt := *e.DB, *e.DB
	rebuilt.InvalidateCaches()
	// Func values never compare equal; the resolver is not an access path.
	maintained.ResolveTerms, rebuilt.ResolveTerms = nil, nil
	if !reflect.DeepEqual(maintained, rebuilt) {
		t.Fatalf("%s: maintained access paths differ from a rebuild", when)
	}
}

// randomDoc draws a conceptual document from small pools, so streams
// repost URLs, repeat qualified ids across documents and repeat
// association pairs: classes, attribute values (whitespace-padded and
// empty ones included) and links all change between versions.
func randomDoc(r *rand.Rand) *webspace.Document {
	classes := []struct {
		name  string
		attrs []string
	}{
		{"Article", []string{"title", "body"}},
		{"Player", []string{"name", "gender", "country", "hand", "history", "picture"}},
		{"Profile", []string{"document", "video"}},
	}
	values := []string{"Ada", "  padded value \n", "", "   ", "left", "a b c"}
	ids := []string{"a", "b", "c", "d"}
	doc := &webspace.Document{URL: fmt.Sprintf("u%d", r.Intn(6))}
	for i := r.Intn(4); i > 0; i-- {
		c := classes[r.Intn(len(classes))]
		o := &webspace.Object{Class: c.name, ID: ids[r.Intn(len(ids))], Attrs: map[string]string{}}
		for _, a := range c.attrs {
			if r.Intn(2) == 0 {
				o.Attrs[a] = values[r.Intn(len(values))]
			}
		}
		doc.Objects = append(doc.Objects, o)
	}
	links := []struct{ name, from, to string }{
		{"Is_covered_in", "Player", "Article"},
		{"About", "Profile", "Player"},
	}
	for i := r.Intn(4); i > 0; i-- {
		l := links[r.Intn(len(links))]
		link := webspace.Link{Association: l.name, From: l.from + ":" + ids[r.Intn(len(ids))], To: l.to + ":" + ids[r.Intn(len(ids))]}
		doc.Links = append(doc.Links, link)
		if r.Intn(3) == 0 {
			doc.Links = append(doc.Links, link) // a duplicate pair
		}
	}
	return doc
}

// TestAccessPathsMaintainedEqualRebuilt: the access paths AddDocument
// maintains in place equal a rebuild from the store after every step
// of random document streams interleaved with reads, and after
// Populate, reposts of crawled documents and an Upgrade.
func TestAccessPathsMaintainedEqualRebuilt(t *testing.T) {
	classes := []string{"Article", "Player", "Profile", "Nothing"}
	for seed := int64(1); seed <= 6; seed++ {
		e, err := NewAusOpen(site.Generate(1))
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 150; step++ {
			if r.Intn(4) == 0 {
				e.DB.OIDOf(classes[r.Intn(3)] + ":" + string(rune('a'+r.Intn(4))))
				e.DB.ObjectsOfClass(classes[r.Intn(len(classes))])
				continue
			}
			doc := randomDoc(r)
			if err := e.AddDocument(doc); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			assertRebuilt(t, e, fmt.Sprintf("seed %d step %d (%s)", seed, step, doc.URL))
		}
	}

	e, _, _, err := BuildAusOpen(1)
	if err != nil {
		t.Fatal(err)
	}
	assertRebuilt(t, e, "after Populate")
	r := rand.New(rand.NewSource(7))
	urls := make([]string, 0, len(e.conceptDocs))
	for url := range e.conceptDocs {
		urls = append(urls, url)
	}
	for step := 0; step < 40; step++ {
		doc := randomDoc(r)
		if step%2 == 0 {
			doc.URL = urls[r.Intn(len(urls))] // repost a crawled document
		}
		if err := e.AddDocument(doc); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertRebuilt(t, e, fmt.Sprintf("populated engine, step %d (%s)", step, doc.URL))
	}
	if _, err := e.Upgrade(brokenTracker()); err != nil {
		t.Fatal(err)
	}
	assertRebuilt(t, e, "after Upgrade")
}
