package textgen

import (
	"fmt"
	"strings"

	"langcrawl/internal/charset"
	"langcrawl/internal/rng"
)

// PageSpec describes an HTML page to synthesize.
type PageSpec struct {
	// Lang is the language of the body text.
	Lang Lang
	// Charset is the encoding the page bytes are actually written in.
	Charset charset.Charset
	// DeclaredCharset is what the META tag claims. charset.Unknown omits
	// the META declaration entirely; a value different from Charset
	// produces a *mislabeled* page — the paper's §3 observation 3.
	DeclaredCharset charset.Charset
	// Links are the outgoing anchors, in order.
	Links []string
	// Paragraphs is the number of body paragraphs (default 3).
	Paragraphs int
}

// HTMLPage synthesizes a complete HTML document per spec, drawing all
// text from r, and returns it encoded in spec.Charset. The structure is
// deliberately ordinary: head with title and optional META charset, body
// with headings, paragraphs, and anchor elements interleaved with text —
// what a link extractor meets in the wild.
func HTMLPage(spec PageSpec, r *rng.RNG) []byte {
	return AppendHTMLPage(nil, spec, r)
}

// AppendHTMLPage is HTMLPage appending into a caller-owned buffer, so
// tight simulation loops can regenerate page after page without a fresh
// slice each time. It returns the extended buffer; the bytes appended
// are identical to HTMLPage's.
func AppendHTMLPage(dst []byte, spec PageSpec, r *rng.RNG) []byte {
	g := New(spec.Lang, r)
	var sb strings.Builder

	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	if spec.DeclaredCharset != charset.Unknown {
		fmt.Fprintf(&sb, "<meta http-equiv=\"Content-Type\" content=\"text/html; charset=%s\">\n",
			spec.DeclaredCharset)
	}
	fmt.Fprintf(&sb, "<title>%s</title>\n</head>\n<body>\n", escapeHTML(g.Title()))
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", escapeHTML(g.Title()))

	paras := spec.Paragraphs
	if paras <= 0 {
		paras = 3
	}
	links := spec.Links
	for i := 0; i < paras; i++ {
		sb.WriteString("<p>")
		sb.WriteString(escapeHTML(g.Paragraph(0)))
		// Spread links across paragraphs.
		lo := i * len(links) / paras
		hi := (i + 1) * len(links) / paras
		for _, href := range links[lo:hi] {
			fmt.Fprintf(&sb, " <a href=\"%s\">%s</a>", escapeAttr(href), escapeHTML(g.Word()))
		}
		sb.WriteString("</p>\n")
	}
	sb.WriteString("</body>\n</html>\n")

	codec := charset.CodecFor(spec.Charset)
	if codec == nil {
		codec = charset.CodecFor(charset.UTF8)
	}
	return charset.AppendEncode(codec, dst, sb.String())
}

// The replacers are built once: a strings.Replacer is safe for
// concurrent use, and building one per call dominated page synthesis.
var (
	htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "\"", "&quot;", "<", "&lt;")
)

func escapeHTML(s string) string { return htmlEscaper.Replace(s) }

func escapeAttr(s string) string { return attrEscaper.Replace(s) }
