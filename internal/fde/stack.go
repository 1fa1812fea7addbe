// Package fde implements the Feature Detector Engine: the special
// recursive-descent parser, generated from a feature grammar, that
// proves a multimedia object to be a member of the grammar's language
// while executing the detectors it encounters on the way. Detector
// output tokens are pushed on the token stack, validated against the
// production rules and moved into the parse tree. To support
// backtracking the engine keeps several versions of the token stack;
// versions share their common suffix (as in Tomita's generalised
// parsing [Tom86]) so saving a version is O(1) instead of O(stack).
package fde

import "dlsearch/internal/detector"

// Stack is an immutable token stack. The zero value is the empty
// stack. Because cells are immutable, any number of stack versions can
// coexist while sharing their common suffix; saving a version is
// copying the struct (two words).
type Stack struct {
	top  *cell
	size int
}

type cell struct {
	tok  detector.Token
	next *cell
}

// NewStack builds a stack whose top is toks[0].
func NewStack(toks []detector.Token) Stack {
	s := Stack{}
	for i := len(toks) - 1; i >= 0; i-- {
		s = Stack{top: &cell{tok: toks[i], next: s.top}, size: s.size + 1}
	}
	return s
}

// Len returns the number of tokens on the stack.
func (s Stack) Len() int { return s.size }

// Empty reports whether the stack has no tokens.
func (s Stack) Empty() bool { return s.size == 0 }

// Peek returns the top token without consuming it.
func (s Stack) Peek() (detector.Token, bool) {
	if s.top == nil {
		return detector.Token{}, false
	}
	return s.top.tok, true
}

// Pop returns the top token and the stack without it.
func (s Stack) Pop() (detector.Token, Stack, bool) {
	if s.top == nil {
		return detector.Token{}, s, false
	}
	return s.top.tok, Stack{top: s.top.next, size: s.size - 1}, true
}

// Push returns the stack with toks prepended such that toks[0] becomes
// the new top: a detector emitting tokens [t1 t2 t3] wants the parser
// to consume t1 first.
func (s Stack) Push(toks []detector.Token) Stack {
	for i := len(toks) - 1; i >= 0; i-- {
		s = Stack{top: &cell{tok: toks[i], next: s.top}, size: s.size + 1}
	}
	return s
}
