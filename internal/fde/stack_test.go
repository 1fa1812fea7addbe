package fde

import (
	"testing"

	"dlsearch/internal/detector"
)

func toks(n int) []detector.Token {
	out := make([]detector.Token, n)
	for i := range out {
		out[i] = detector.Token{Symbol: "t", Value: string(rune('a' + i%26))}
	}
	return out
}

func TestStackOrder(t *testing.T) {
	s := NewStack([]detector.Token{{Value: "1"}, {Value: "2"}, {Value: "3"}})
	if s.Len() != 3 || s.Empty() {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, want := range []string{"1", "2", "3"} {
		var tok detector.Token
		var ok bool
		tok, s, ok = s.Pop()
		if !ok || tok.Value != want {
			t.Fatalf("popped %q, want %q", tok.Value, want)
		}
	}
	if !s.Empty() {
		t.Fatal("stack should be empty")
	}
	if _, _, ok := s.Pop(); ok {
		t.Fatal("pop of empty stack should fail")
	}
}

func TestStackPushOrder(t *testing.T) {
	s := NewStack([]detector.Token{{Value: "rest"}})
	s = s.Push([]detector.Token{{Value: "x"}, {Value: "y"}})
	want := []string{"x", "y", "rest"}
	for _, w := range want {
		var tok detector.Token
		tok, s, _ = s.Pop()
		if tok.Value != w {
			t.Fatalf("popped %q, want %q", tok.Value, w)
		}
	}
}

func TestStackVersionsShareSuffix(t *testing.T) {
	base := NewStack(toks(100))
	// Saving a version is just a copy of the struct.
	v1 := base
	// Consuming from v1 must not disturb base.
	_, v1, _ = v1.Pop()
	_, v1, _ = v1.Pop()
	if base.Len() != 100 || v1.Len() != 98 {
		t.Fatalf("lens = %d, %d", base.Len(), v1.Len())
	}
	// The two versions share the same suffix cells.
	if base.top.next.next != v1.top {
		t.Fatal("suffix not shared between versions")
	}
}

func TestStackPeek(t *testing.T) {
	s := NewStack(nil)
	if _, ok := s.Peek(); ok {
		t.Fatal("peek of empty should fail")
	}
	s = s.Push([]detector.Token{{Value: "top"}})
	if tok, ok := s.Peek(); !ok || tok.Value != "top" {
		t.Fatalf("peek = %v, %v", tok, ok)
	}
	if s.Len() != 1 {
		t.Fatal("peek must not consume")
	}
}

// CopyStack is the naive mutable token stack that copies all tokens on
// every version save: the baseline of experiment E13 (shared-suffix
// versions vs full copies). The engine itself uses Stack.
type CopyStack struct {
	toks []detector.Token // toks[len-1] is the top
}

// NewCopyStack builds a naive stack whose top is toks[0].
func NewCopyStack(toks []detector.Token) *CopyStack {
	c := &CopyStack{toks: make([]detector.Token, len(toks))}
	for i, t := range toks {
		c.toks[len(toks)-1-i] = t
	}
	return c
}

// Save returns a full copy of the stack: the O(stack) cost the shared
// suffix representation avoids.
func (c *CopyStack) Save() *CopyStack {
	cp := make([]detector.Token, len(c.toks))
	copy(cp, c.toks)
	return &CopyStack{toks: cp}
}

// Len returns the number of tokens.
func (c *CopyStack) Len() int { return len(c.toks) }

// Pop removes and returns the top token.
func (c *CopyStack) Pop() (detector.Token, bool) {
	if len(c.toks) == 0 {
		return detector.Token{}, false
	}
	t := c.toks[len(c.toks)-1]
	c.toks = c.toks[:len(c.toks)-1]
	return t, true
}

// Push adds toks such that toks[0] becomes the new top.
func (c *CopyStack) Push(toks []detector.Token) {
	for i := len(toks) - 1; i >= 0; i-- {
		c.toks = append(c.toks, toks[i])
	}
}

func TestCopyStackMatchesStack(t *testing.T) {
	input := toks(20)
	s := NewStack(input)
	c := NewCopyStack(input)
	for !s.Empty() {
		var st, ct detector.Token
		var ok bool
		st, s, ok = s.Pop()
		if !ok {
			t.Fatal("shared pop failed")
		}
		ct, ok = c.Pop()
		if !ok || ct != st {
			t.Fatalf("stacks disagree: %v vs %v", ct, st)
		}
	}
	if c.Len() != 0 {
		t.Fatal("copy stack not drained")
	}
	if _, ok := c.Pop(); ok {
		t.Fatal("pop of empty copy stack should fail")
	}
}

func TestCopyStackSaveIsIsolated(t *testing.T) {
	c := NewCopyStack(toks(5))
	saved := c.Save()
	c.Pop()
	c.Push([]detector.Token{{Value: "zz"}})
	if saved.Len() != 5 {
		t.Fatalf("saved copy affected by mutation: %d", saved.Len())
	}
}

// BenchmarkTokenStackSharing and BenchmarkTokenStackCopying are
// experiment E13: version saves during backtracking are O(1) with
// shared suffixes versus O(stack) with naive copying.
func BenchmarkTokenStackSharing(b *testing.B) {
	input := toks(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStack(input)
		for j := 0; j < 100; j++ {
			v := s // save version: O(1)
			_, v, _ = v.Pop()
			_ = v
		}
	}
}

func BenchmarkTokenStackCopying(b *testing.B) {
	input := toks(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewCopyStack(input)
		for j := 0; j < 100; j++ {
			v := s.Save() // save version: O(stack)
			v.Pop()
		}
	}
}
