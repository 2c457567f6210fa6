package expression

import (
	"errors"
	"strings"
	"testing"
)

// mustLike compiles a pattern CompileLike accepts.
func mustLike(p string) *LikeMatcher {
	m, err := CompileLike(p)
	if err != nil {
		panic(err)
	}
	return m
}

// refLikeMatch is the reference LIKE matcher the compiled paths are checked
// against: a direct recursive transcription of the semantics ('%' matches
// any byte sequence, '_' exactly one byte, '\' makes the byte after it match
// itself), memoized on (si, pi) so patterns with many '%'s stay polynomial.
// p does not end in a lone '\'.
func refLikeMatch(s, p string) bool {
	memo := make(map[[2]int]bool)
	var match func(si, pi int) bool
	match = func(si, pi int) bool {
		if pi == len(p) {
			return si == len(s)
		}
		key := [2]int{si, pi}
		if v, ok := memo[key]; ok {
			return v
		}
		var v bool
		switch p[pi] {
		case '%':
			for i := si; i <= len(s) && !v; i++ {
				v = match(i, pi+1)
			}
		case '_':
			v = si < len(s) && match(si+1, pi+1)
		case '\\':
			v = si < len(s) && s[si] == p[pi+1] && match(si+1, pi+2)
		default:
			v = si < len(s) && s[si] == p[pi] && match(si+1, pi+1)
		}
		memo[key] = v
		return v
	}
	return match(0, 0)
}

// TestLikeExhaustiveSmallAlphabet enumerates every pattern over
// {a, b, %, _, \} up to length 4 against every string over {a, b, %, \} up
// to length 5 and cross-checks the compiled matcher (fast paths included) and
// the generic fallback against the reference matcher. A pattern that ends in
// a lone '\' must be refused, and only such a pattern.
func TestLikeExhaustiveSmallAlphabet(t *testing.T) {
	patAlpha := []byte{'a', 'b', '%', '_', '\\'}
	strAlpha := []byte{'a', 'b', '%', '\\'} // literal '%' and '\' in the haystack must pair only with escapes

	var enumerate func(alpha []byte, maxLen int) []string
	enumerate = func(alpha []byte, maxLen int) []string {
		out := []string{""}
		frontier := []string{""}
		for l := 0; l < maxLen; l++ {
			var next []string
			for _, prefix := range frontier {
				for _, c := range alpha {
					next = append(next, prefix+string(c))
				}
			}
			out = append(out, next...)
			frontier = next
		}
		return out
	}

	patterns := enumerate(patAlpha, 4)
	strs := enumerate(strAlpha, 5)
	for _, p := range patterns {
		trailing := len(p) - len(strings.TrimRight(p, `\`))
		m, err := CompileLike(p)
		if (err != nil) != (trailing%2 == 1) {
			t.Fatalf("CompileLike(%q) error %v, want one exactly for a lone trailing escape", p, err)
		}
		if err != nil {
			if !errors.Is(err, ErrInvalidEscape) {
				t.Fatalf("CompileLike(%q) error %v, want ErrInvalidEscape", p, err)
			}
			continue
		}
		for _, s := range strs {
			want := refLikeMatch(s, p)
			if got := m.Match(s); got != want {
				t.Fatalf("Match(%q, %q) = %v, want %v (kind %d)", s, p, got, want, m.kind)
			}
			if got := likeGenericMatch(s, p); got != want {
				t.Fatalf("likeGenericMatch(%q, %q) = %v, want %v", s, p, got, want)
			}
		}
	}
}

// FuzzLike differentially fuzzes the compiled matcher and the generic
// fallback against the reference matcher on arbitrary byte strings.
func FuzzLike(f *testing.F) {
	seeds := [][2]string{
		{"", ""}, {"", "%"}, {"abc", "abc"}, {"abc", "ab"},
		{"hello world", "hello%"}, {"hello world", "%world"},
		{"hello world", "%lo wo%"}, {"hello world", "%l%o%"},
		{"aaa", "%aa%a%"}, {"ab", "a%b_"}, {"abc", "a%b%c"},
		{"abc", "_b_"}, {"abc", "%_%"}, {"", "_"}, {"x", "%%"},
		{"日本語", "日%語"}, {"a\x00b", "a_b"},
		{"%0", "%"}, {"a%b", "a%b"}, {"%", "_"},
		{"a%c", `a\%c`}, {"abc", `a\%c`}, {`a\c`, `a\\c`}, {"a_", `%\_`}, {"a", `a\`},
	}
	for _, seed := range seeds {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, p string) {
		if len(s) > 256 || len(p) > 64 {
			return
		}
		if _, err := CompileLike(p); err != nil {
			if !strings.HasSuffix(p, `\`) {
				t.Errorf("CompileLike(%q): %v", p, err)
			}
			return
		}
		want := refLikeMatch(s, p)
		if got := mustLike(p).Match(s); got != want {
			t.Errorf("CompileLike(%q).Match(%q) = %v, want %v", p, s, got, want)
		}
		if got := likeGenericMatch(s, p); got != want {
			t.Errorf("likeGenericMatch(%q, %q) = %v, want %v", s, p, got, want)
		}
		// A compiled matcher must be reusable: the second call through the
		// same matcher must agree with the first.
		m := mustLike(p)
		if m.Match(s) != m.Match(s) {
			t.Errorf("CompileLike(%q).Match(%q) is not idempotent", p, s)
		}
	})
}

// TestLikeChainNonGreedyRegression pins chain patterns where the leftmost
// occurrence of an early part overlaps the only occurrence of a later one.
func TestLikeChainNonGreedyRegression(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"aaa", "%aa%a%", true},
		{"aab", "%aa%a%", false},
		{"abab", "%ab%ab%", true},
		{"aba", "%ab%ab%", false},
		{"xayxbz", "%a%b%", true},
		{"xbyxaz", "%a%b%", false},
	}
	for _, c := range cases {
		if got := mustLike(c.p).Match(c.s); got != c.want {
			t.Errorf("CompileLike(%q).Match(%q) = %v, want %v", c.p, c.s, got, c.want)
		}
		if got := refLikeMatch(c.s, c.p); got != c.want {
			t.Errorf("reference disagrees on (%q, %q): got %v, want %v — fix the test", c.s, c.p, got, c.want)
		}
	}
}

// TestLikeEscape: '\' is LIKE's default escape, as in PostgreSQL: an escaped
// '%', '_' or '\' matches itself, any other escaped byte matches itself too,
// and a pattern may not end in a lone '\'.
func TestLikeEscape(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"a%c", `a\%c`, true},
		{"abc", `a\%c`, false},
		{"a_c", `a\_c`, true},
		{"abc", `a\_c`, false},
		{`a\c`, `a\\c`, true},
		{"ac", `a\\c`, false},
		{"abc", `\a%`, true},
		{"100%", `%\%`, true},
		{"100", `%\%`, false},
		{"x%y%z", `%\%%\%%`, true},
		{"x%yz", `%\%%\%%`, false},
	}
	for _, c := range cases {
		m := mustLike(c.p)
		if m.kind != likeGeneric {
			t.Errorf("CompileLike(%q).kind = %d, want the generic matcher for a pattern with an escape", c.p, m.kind)
		}
		if got := m.Match(c.s); got != c.want {
			t.Errorf("CompileLike(%q).Match(%q) = %v, want %v", c.p, c.s, got, c.want)
		}
		if got := refLikeMatch(c.s, c.p); got != c.want {
			t.Errorf("reference disagrees on (%q, %q): got %v, want %v — fix the test", c.s, c.p, got, c.want)
		}
	}
	for _, p := range []string{`\`, `a\`, `a\\\`, `%\`} {
		if _, err := CompileLike(p); !errors.Is(err, ErrInvalidEscape) {
			t.Errorf("CompileLike(%q) error %v, want ErrInvalidEscape", p, err)
		}
	}
}

// TestLikeKindSelection guards the fast-path classifier: each shape must
// land on the intended kind, since a misclassification would silently fall
// back to (or worse, wrongly use) another matcher.
func TestLikeKindSelection(t *testing.T) {
	cases := []struct {
		p    string
		kind likeKind
	}{
		{"abc", likeExact},
		{"abc%", likePrefix},
		{"%abc", likeSuffix},
		{"%abc%", likeContains},
		{"%a%b%", likeChain},
		{"%%", likeChain},
		{"%", likePrefix},
		{"a%b", likeGeneric},
		{"a_c", likeGeneric},
		{"%a_b%", likeGeneric},
	}
	for _, c := range cases {
		if got := mustLike(c.p).kind; got != c.kind {
			t.Errorf("CompileLike(%q).kind = %d, want %d", c.p, got, c.kind)
		}
	}
}
