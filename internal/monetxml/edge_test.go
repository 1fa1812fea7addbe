package monetxml

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dlsearch/internal/bat"
)

// EdgeStore is the generic edge-table baseline mapping the paper
// contrasts the Monet transform with: one global node table, one
// parent table and one attribute heap, independent of document
// structure. Path expressions must be evaluated by repeated
// child→parent joins with per-node tag checks instead of a single
// scan over a path-named relation. Only experiment E09 uses it:
// BenchmarkE09PathQuery prices the two mappings and
// TestEdgeStoreAgreesWithMonet checks they answer alike.
type EdgeStore struct {
	seq    *bat.Sequence
	tags   *bat.BAT // node oid × tag ("" for text nodes)
	parent *bat.BAT // child oid × parent oid
	rank   *bat.BAT // node oid × sibling rank
	text   *bat.BAT // text node oid × character data

	attrOwner *bat.BAT // attr oid × element oid
	attrName  *bat.BAT // attr oid × name
	attrValue *bat.BAT // attr oid × value

	roots []bat.OID
}

// NewEdgeStore returns an empty edge-table store.
func NewEdgeStore() *EdgeStore {
	return &EdgeStore{
		seq:       bat.NewSequence(),
		tags:      bat.New("tags", bat.KindString),
		parent:    bat.New("parent", bat.KindOID),
		rank:      bat.New("rank", bat.KindInt),
		text:      bat.New("text", bat.KindString),
		attrOwner: bat.New("attrOwner", bat.KindOID),
		attrName:  bat.New("attrName", bat.KindString),
		attrValue: bat.New("attrValue", bat.KindString),
	}
}

// LoadNode inserts a Node tree and returns the root oid.
func (e *EdgeStore) LoadNode(n *Node) bat.OID {
	root := e.insert(n, bat.NilOID, 0)
	e.roots = append(e.roots, root)
	return root
}

func (e *EdgeStore) insert(n *Node, parent bat.OID, rank int64) bat.OID {
	oid := e.seq.Next()
	if n.IsText() {
		e.tags.AppendString(oid, "")
		e.text.AppendString(oid, strings.TrimSpace(n.Text))
	} else {
		e.tags.AppendString(oid, n.Tag)
	}
	if parent != bat.NilOID {
		e.parent.AppendOID(oid, parent)
	}
	e.rank.AppendInt(oid, rank)
	for _, a := range n.Attrs {
		ao := e.seq.Next()
		e.attrOwner.AppendOID(ao, oid)
		e.attrName.AppendString(ao, a.Name)
		e.attrValue.AppendString(ao, a.Value)
	}
	r := int64(0)
	for _, c := range n.Children {
		if c.IsText() && strings.TrimSpace(c.Text) == "" {
			continue
		}
		e.insert(c, oid, r)
		r++
	}
	return oid
}

// NodesAt evaluates an absolute path expression "a/b/c" by selecting
// all nodes tagged with the final step and walking parent chains,
// checking each ancestor's tag — the join-heavy plan a generic mapping
// forces.
func (e *EdgeStore) NodesAt(expr string) []bat.OID {
	steps := strings.Split(strings.TrimPrefix(expr, "/"), "/")
	if len(steps) == 0 {
		return nil
	}
	last := steps[len(steps)-1]
	candidates := e.tags.HeadsOfString(last)
	var out []bat.OID
	for _, c := range candidates {
		if e.matchesPath(c, steps) {
			out = append(out, c)
		}
	}
	return out
}

func (e *EdgeStore) matchesPath(oid bat.OID, steps []string) bool {
	cur := oid
	for i := len(steps) - 1; i >= 0; i-- {
		tag, ok := e.tags.StringOfHead(cur)
		if !ok || (steps[i] != "*" && tag != steps[i]) {
			return false
		}
		parents := e.parent.TailsOfHead(cur)
		if i == 0 {
			return len(parents) == 0 // must be a root
		}
		if len(parents) == 0 {
			return false
		}
		cur = parents[0]
	}
	return true
}

// AttrOf returns the value of the named attribute of the given
// element; three scans/joins in the generic mapping versus one hash
// lookup in the Monet transform.
func (e *EdgeStore) AttrOf(oid bat.OID, name string) (string, bool) {
	for _, ao := range e.attrOwner.HeadsOfOID(oid) {
		if n, ok := e.attrName.StringOfHead(ao); ok && n == name {
			return e.attrValue.StringOfHead(ao)
		}
	}
	return "", false
}

// TextOf returns the concatenated character data directly below oid.
func (e *EdgeStore) TextOf(oid bat.OID) string {
	var sb strings.Builder
	for _, c := range e.parent.HeadsOfOID(oid) {
		if v, ok := e.text.StringOfHead(c); ok {
			sb.WriteString(v)
		}
	}
	return sb.String()
}

// Roots returns the root oids of all loaded documents.
func (e *EdgeStore) Roots() []bat.OID { return append([]bat.OID(nil), e.roots...) }

// NodeCount returns the number of nodes stored.
func (e *EdgeStore) NodeCount() int { return e.tags.Len() }

func TestEdgeStoreBasics(t *testing.T) {
	e := NewEdgeStore()
	n := MustParseNode(`<a x="1"><b>hello</b><b>world</b><c><b>deep</b></c></a>`)
	root := e.LoadNode(n)
	if len(e.Roots()) != 1 || e.Roots()[0] != root {
		t.Fatalf("Roots = %v", e.Roots())
	}
	if v, ok := e.AttrOf(root, "x"); !ok || v != "1" {
		t.Fatalf("AttrOf = %q,%v", v, ok)
	}
	if _, ok := e.AttrOf(root, "nope"); ok {
		t.Fatal("absent attribute found")
	}

	bs := e.NodesAt("a/b")
	if len(bs) != 2 {
		t.Fatalf("a/b count = %d, want 2 (deep b must not match)", len(bs))
	}
	deep := e.NodesAt("a/c/b")
	if len(deep) != 1 {
		t.Fatalf("a/c/b count = %d", len(deep))
	}
	if got := e.TextOf(deep[0]); got != "deep" {
		t.Fatalf("TextOf = %q", got)
	}
	if got := e.NodesAt("z/b"); len(got) != 0 {
		t.Fatalf("z/b should be empty, got %v", got)
	}
}

// TestEdgeStoreAgreesWithMonet is the correctness half of experiment
// E09: both mappings must return the same answers; the benchmark half
// measures the cost difference.
func TestEdgeStoreAgreesWithMonet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ms := NewStore()
	es := NewEdgeStore()
	for i := 0; i < 40; i++ {
		tree := randomTree(rng, 4)
		if _, err := ms.LoadNode(fmt.Sprintf("u%d", i), tree); err != nil {
			t.Fatal(err)
		}
		es.LoadNode(tree)
	}
	exprs := []string{"a/b", "a/b/c", "b/a", "c/d", "a/a/a", "d/c/b/a"}
	for _, expr := range exprs {
		mres, err := ms.NodesAt(expr)
		if err != nil {
			t.Fatal(err)
		}
		eres := es.NodesAt(expr)
		if len(mres) != len(eres) {
			t.Fatalf("expr %q: monet=%d edge=%d", expr, len(mres), len(eres))
		}
	}
}

func TestEdgeStoreNodeCount(t *testing.T) {
	e := NewEdgeStore()
	e.LoadNode(MustParseNode(`<a><b>x</b></a>`))
	// a, b, text = 3
	if got := e.NodeCount(); got != 3 {
		t.Fatalf("NodeCount = %d", got)
	}
}

// articleXML renders a synthetic article with the given number of
// sections, two paragraphs each.
func articleXML(i, sections int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<article id="%d"><title>Article %d</title>`, i, i)
	for p := 0; p < sections; p++ {
		fmt.Fprintf(&sb, `<section no="%d"><para>tennis open winner rally %d</para><para>net serve ace %d</para></section>`, p, i, p)
	}
	sb.WriteString("</article>")
	return sb.String()
}

// BenchmarkE09PathQuery is experiment E09: a path expression answered
// by one scan of a path-named relation vs the edge mapping's
// child-to-parent joins.
func BenchmarkE09PathQuery(b *testing.B) {
	for _, docs := range []int{200, 1000} {
		ms := NewStore()
		es := NewEdgeStore()
		for d := 0; d < docs; d++ {
			n := MustParseNode(articleXML(d, 5))
			if _, err := ms.LoadNode("u", n); err != nil {
				b.Fatal(err)
			}
			es.LoadNode(n)
		}
		b.Run(fmt.Sprintf("monet/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := ms.NodesAt("article/section/para")
				if err != nil || len(got) != docs*10 {
					b.Fatalf("got %d, err %v", len(got), err)
				}
			}
		})
		b.Run(fmt.Sprintf("edge/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := es.NodesAt("article/section/para"); len(got) != docs*10 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}
