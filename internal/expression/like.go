package expression

import (
	"errors"
	"strings"
)

// ErrInvalidEscape: a LIKE pattern ends in a lone escape character.
var ErrInvalidEscape = errors.New("LIKE pattern must not end with escape character")

// LikeMatcher matches SQL LIKE patterns ('%' = any sequence, '_' = any
// single byte, '\' escapes the byte after it, which then matches itself, as
// PostgreSQL's default escape does). Patterns are compiled once and reused
// across rows; the common shapes (prefix%, %suffix%, %infix%, exact) without
// an escape take fast paths over plain string functions, everything else uses
// a greedy two-pointer match with backtracking on the last '%'.
type LikeMatcher struct {
	pattern string
	kind    likeKind
	needle  string   // for the fast paths
	parts   []string // for the multi-'%' contains chain
}

type likeKind uint8

const (
	likeExact    likeKind = iota // no wildcards
	likePrefix                   // abc%
	likeSuffix                   // %abc
	likeContains                 // %abc%
	likeChain                    // %a%b%c% (only % wildcards, anchored free)
	likeGeneric                  // anything with '_' or '\'
)

// CompileLike prepares a matcher for the pattern; a pattern that ends in a
// lone '\' is refused (ErrInvalidEscape).
func CompileLike(pattern string) (*LikeMatcher, error) {
	m := &LikeMatcher{pattern: pattern}
	if strings.ContainsAny(pattern, `_\`) {
		if trailing := len(pattern) - len(strings.TrimRight(pattern, `\`)); trailing%2 == 1 {
			return nil, ErrInvalidEscape
		}
		m.kind = likeGeneric
		return m, nil
	}
	switch {
	case !strings.ContainsRune(pattern, '%'):
		m.kind = likeExact
		m.needle = pattern
	case strings.Count(pattern, "%") == 1 && strings.HasSuffix(pattern, "%"):
		m.kind = likePrefix
		m.needle = pattern[:len(pattern)-1]
	case strings.Count(pattern, "%") == 1 && strings.HasPrefix(pattern, "%"):
		m.kind = likeSuffix
		m.needle = pattern[1:]
	case strings.Count(pattern, "%") == 2 && strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%") && len(pattern) > 2:
		m.kind = likeContains
		m.needle = pattern[1 : len(pattern)-1]
	case strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%"):
		m.kind = likeChain
		m.parts = splitNonEmpty(pattern)
	default:
		m.kind = likeGeneric
	}
	return m, nil
}

func splitNonEmpty(pattern string) []string {
	raw := strings.Split(pattern, "%")
	out := raw[:0]
	for _, p := range raw {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Match reports whether s matches the pattern.
func (m *LikeMatcher) Match(s string) bool {
	switch m.kind {
	case likeExact:
		return s == m.needle
	case likePrefix:
		return strings.HasPrefix(s, m.needle)
	case likeSuffix:
		return strings.HasSuffix(s, m.needle)
	case likeContains:
		return strings.Contains(s, m.needle)
	case likeChain:
		// %a%b%: every part must appear, in order, non-overlapping.
		rest := s
		for _, p := range m.parts {
			i := strings.Index(rest, p)
			if i < 0 {
				return false
			}
			rest = rest[i+len(p):]
		}
		return true
	default:
		return likeGenericMatch(s, m.pattern)
	}
}

// likeGenericMatch is the classic greedy wildcard matcher: advance through
// both strings; on mismatch, backtrack to one past the position the last
// '%' matched. p does not end in a lone '\' (CompileLike).
func likeGenericMatch(s, p string) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		// '%' must be checked before the literal comparison: when the text
		// byte itself is '%', the literal case would otherwise consume the
		// wildcard as a plain character (e.g. "%0" failed to match "%").
		case pi < len(p) && p[pi] == '%':
			starP, starS = pi, si
			pi++
		case pi < len(p) && p[pi] == '\\' && p[pi+1] == s[si]:
			si++
			pi += 2
		case pi < len(p) && p[pi] != '\\' && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case starP >= 0:
			starS++
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
