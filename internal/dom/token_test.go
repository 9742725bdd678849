package dom

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// tokens drains the tokenizer over src.
func tokens(src string) []Token {
	z := NewTokenizer(src)
	var out []Token
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

// TestRawTextCloseTagWithAttributes: some generators emit close tags with
// stray attributes (`</script foo="bar">`). The raw-text scanner must
// still recognize the end tag and not swallow the rest of the document.
func TestRawTextCloseTagWithAttributes(t *testing.T) {
	toks := tokens(`<script>var x = 1;</script foo="bar"><p>after</p>`)
	var sawEnd, sawAfter bool
	for _, tok := range toks {
		if tok.Type == EndTagToken && tok.Data == "script" {
			sawEnd = true
		}
		if tok.Type == TextToken && tok.Data == "after" {
			sawAfter = true
		}
	}
	if !sawEnd {
		t.Errorf("no script end tag in %+v", toks)
	}
	if !sawAfter {
		t.Errorf("content after attribute-bearing close tag lost: %+v", toks)
	}
}

// TestRawTextUnterminatedAtEOF: a raw-text element that never closes must
// consume the rest of the input as text and terminate — no infinite loop,
// no lost tokenizer state on a following Next call.
func TestRawTextUnterminatedAtEOF(t *testing.T) {
	for _, tag := range []string{"script", "style", "textarea", "title"} {
		src := "<" + tag + ">unterminated content"
		toks := tokens(src)
		if len(toks) != 2 {
			t.Fatalf("%s: got %d tokens %+v, want start tag + text", tag, len(toks), toks)
		}
		if toks[0].Type != StartTagToken || toks[0].Data != tag {
			t.Errorf("%s: first token = %+v", tag, toks[0])
		}
		if toks[1].Type != TextToken || toks[1].Data != "unterminated content" {
			t.Errorf("%s: second token = %+v", tag, toks[1])
		}
		z := NewTokenizer(src)
		z.Next()
		z.Next()
		if tok, ok := z.Next(); ok {
			t.Errorf("%s: token after EOF: %+v", tag, tok)
		}
	}
}

// TestRawTextCaseInsensitiveClose: the end-tag scan must match
// case-insensitively (`</SCRIPT>` closes `<script>`).
func TestRawTextCaseInsensitiveClose(t *testing.T) {
	toks := tokens(`<script>x</SCRIPT><b>y</b>`)
	var sawEnd bool
	for _, tok := range toks {
		if tok.Type == EndTagToken && tok.Data == "script" {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Errorf("uppercase close tag not recognized: %+v", toks)
	}
}

// TestEntityDecodingInAttributes: character references inside attribute
// values decode like text content, in both quoting styles.
func TestEntityDecodingInAttributes(t *testing.T) {
	toks := tokens(`<a href="?a=1&amp;b=2" title='&lt;hi&gt;' alt=x&#33;>t</a>`)
	if len(toks) == 0 || toks[0].Type != StartTagToken {
		t.Fatalf("tokens = %+v", toks)
	}
	want := map[string]string{
		"href":  "?a=1&b=2",
		"title": "<hi>",
		"alt":   "x!",
	}
	got := map[string]string{}
	for _, a := range toks[0].Attrs {
		got[a.Name] = a.Value
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("attr %s = %q, want %q", name, got[name], w)
		}
	}
}

// TestEntityUnknownPreserved: unknown or malformed references stay
// verbatim rather than corrupting surrounding text.
func TestEntityUnknownPreserved(t *testing.T) {
	for _, tc := range []string{"&bogus;", "&#x;", "&;", "& loose", "&#99999999;"} {
		if got := DecodeEntities(tc); got != tc {
			t.Errorf("DecodeEntities(%q) = %q, want unchanged", tc, got)
		}
	}
}

// TestRawTextFalseEndPrefix: an end-tag-looking run for a different
// element inside raw text is content, not a close.
func TestRawTextFalseEndPrefix(t *testing.T) {
	toks := tokens(`<script>if (a</b) {}</script>`)
	var text strings.Builder
	for _, tok := range toks {
		if tok.Type == TextToken {
			text.WriteString(tok.Data)
		}
	}
	if got := text.String(); got != "if (a</b) {}" {
		t.Errorf("script text = %q", got)
	}
}

// TestRawTextNonASCIIKeepsOffsets: the end-tag index must point into the
// source itself. Lower-casing a copy of the source first skews it by one
// byte per 'İ' (whose lower-case form is a byte longer) and splits the
// script text.
func TestRawTextNonASCIIKeepsOffsets(t *testing.T) {
	toks := tokens(`<script>var s='İİİİ';</script><p>after</p>`)
	want := []Token{
		{Type: StartTagToken, Data: "script"},
		{Type: TextToken, Data: "var s='İİİİ';"},
		{Type: EndTagToken, Data: "script"},
		{Type: StartTagToken, Data: "p"},
		{Type: TextToken, Data: "after"},
		{Type: EndTagToken, Data: "p"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %+v, want %d", len(toks), toks, len(want))
	}
	for i := range want {
		if toks[i].Type != want[i].Type || toks[i].Data != want[i].Data {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
}

// TestRawTextLinear: tokenizing a page of many raw-text elements must
// grow linearly. Doubling the element count may at most multiply the
// bytes allocated (beyond a small allowance for runtime noise), and the
// best of seven timings, by 2.5. The upper-case letters make any
// lower-cased copy of the remaining document show up as allocation.
func TestRawTextLinear(t *testing.T) {
	page := func(n int) string {
		return strings.Repeat("<script>var X = 1;</script><STYLE>p{}</STYLE>", n)
	}
	cost := func(src string) (uint64, time.Duration) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 7; i++ {
			start := time.Now()
			z := NewTokenizer(src)
			var tok Token
			for z.NextInto(&tok) {
			}
			best = min(best, time.Since(start))
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, best
	}
	const n = 10000
	bytesN, timeN := cost(page(n))
	bytes2N, time2N := cost(page(2 * n))
	if float64(bytes2N) > 2.5*float64(bytesN)+64<<10 {
		t.Errorf("allocated %d bytes at N=%d, %d at 2N: superlinear", bytesN, n, bytes2N)
	}
	if float64(time2N) > 2.5*float64(timeN) {
		t.Errorf("took %v at N=%d, %v at 2N: superlinear", timeN, n, time2N)
	}
}
