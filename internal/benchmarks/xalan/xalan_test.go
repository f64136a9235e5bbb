package xalan

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestParseXMLBasics(t *testing.T) {
	n, err := ParseXML(`<a x="1"><b>hi</b><c/></a>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "a" {
		t.Errorf("root = %q", n.Name)
	}
	if v, ok := n.Attr("x"); !ok || v != "1" {
		t.Errorf("attr x = %q/%v", v, ok)
	}
	if len(n.Children) != 2 {
		t.Fatalf("children = %d", len(n.Children))
	}
	if n.Children[0].TextContent() != "hi" {
		t.Errorf("text = %q", n.Children[0].TextContent())
	}
	if n.Children[1].Name != "c" || len(n.Children[1].Children) != 0 {
		t.Errorf("self-closing child parsed wrong: %+v", n.Children[1])
	}
}

func TestParseXMLEntitiesAndComments(t *testing.T) {
	n, err := ParseXML(`<?xml version="1.0"?><!-- hello --><a t="&lt;x&gt;">&amp;ok<!-- mid --></a>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Attr("t"); v != "<x>" {
		t.Errorf("attr = %q", v)
	}
	if n.TextContent() != "&ok" {
		t.Errorf("text = %q", n.TextContent())
	}
}

func TestParseXMLErrors(t *testing.T) {
	bad := []string{
		"",
		"<a>",
		"<a></b>",
		"<a attr></a>",
		`<a x="1></a>`,
		"<a></a><b></b>",
		"plain text",
	}
	for _, src := range bad {
		if _, err := ParseXML(src, nil); !errors.Is(err, ErrBadXML) {
			t.Errorf("ParseXML(%q) err = %v, want ErrBadXML", src, err)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<a x="1"><b>hi &amp; bye</b><c/></a>`
	n, err := ParseXML(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Serialize(n, nil)
	n2, err := ParseXML(out, nil)
	if err != nil {
		t.Fatalf("reserialized output unparseable: %v\n%s", err, out)
	}
	if Serialize(n2, nil) != out {
		t.Error("serialize not a fixed point")
	}
}

func TestCompileStylesheetErrors(t *testing.T) {
	bad := []string{
		"<notstylesheet/>",
		"<stylesheet/>",
		"<stylesheet><template/></stylesheet>",
		"<stylesheet><frob match='x'/></stylesheet>",
	}
	for _, src := range bad {
		if _, err := CompileStylesheet(src); !errors.Is(err, ErrBadStylesheet) {
			t.Errorf("CompileStylesheet(%q) err = %v, want ErrBadStylesheet", src, err)
		}
	}
}

func transform(t *testing.T, xml, ss string) string {
	t.Helper()
	doc, err := ParseXML(xml, nil)
	if err != nil {
		t.Fatal(err)
	}
	sheet, err := CompileStylesheet(ss)
	if err != nil {
		t.Fatal(err)
	}
	return Serialize(NewTransformer(sheet, nil).Transform(doc), nil)
}

func TestTransformValueOf(t *testing.T) {
	out := transform(t, `<r><name>zed</name></r>`, `<stylesheet>
<template match="/"><element name="p"><value-of select="name"/></element></template>
</stylesheet>`)
	if !strings.Contains(out, "<p>zed</p>") {
		t.Errorf("out = %s", out)
	}
}

func TestTransformAttributeAndIf(t *testing.T) {
	out := transform(t, `<r kind="hot"><x/></r>`, `<stylesheet>
<template match="/">
  <element name="div">
    <attribute name="k" select="@kind"/>
    <if test="@kind='hot'"><text value="HOT"/></if>
    <if test="@kind='cold'"><text value="COLD"/></if>
    <if test="x"><text value="HASX"/></if>
    <if test="y"><text value="HASY"/></if>
  </element>
</template>
</stylesheet>`)
	if !strings.Contains(out, `k="hot"`) || !strings.Contains(out, "HOT") || !strings.Contains(out, "HASX") {
		t.Errorf("out = %s", out)
	}
	if strings.Contains(out, "COLD") || strings.Contains(out, "HASY") {
		t.Errorf("false branch leaked: %s", out)
	}
}

func TestTransformForEachAndCount(t *testing.T) {
	out := transform(t, `<r><i>1</i><i>2</i><i>3</i></r>`, `<stylesheet>
<template match="/">
  <element name="n"><count select="i"/></element>
  <for-each select="i"><element name="v"><value-of select="."/></element></for-each>
</template>
</stylesheet>`)
	if !strings.Contains(out, "<n>3</n>") {
		t.Errorf("count missing: %s", out)
	}
	for _, want := range []string{"<v>1</v>", "<v>2</v>", "<v>3</v>"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in %s", want, out)
		}
	}
}

func TestTransformDescendantSelect(t *testing.T) {
	out := transform(t, `<r><a><i>x</i></a><b><c><i>y</i></c></b></r>`, `<stylesheet>
<template match="/"><count select="//i"/></template>
</stylesheet>`)
	if !strings.Contains(out, "2") {
		t.Errorf("descendant count wrong: %s", out)
	}
}

func TestTransformTemplateDispatchAndBuiltins(t *testing.T) {
	out := transform(t, `<r><special>a</special><plain>b</plain></r>`, `<stylesheet>
<template match="special"><element name="S"><value-of select="."/></element></template>
</stylesheet>`)
	// special hits the template; plain falls through built-in rules, so
	// its text is copied bare.
	if !strings.Contains(out, "<S>a</S>") {
		t.Errorf("template not applied: %s", out)
	}
	if !strings.Contains(out, "b") {
		t.Errorf("built-in rule dropped text: %s", out)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	if GenerateRecordsXML(10, 3) != GenerateRecordsXML(10, 3) {
		t.Error("records generator not deterministic")
	}
	if GenerateAuctionXML(5, 9, 12, 3) != GenerateAuctionXML(5, 9, 12, 3) {
		t.Error("auction generator not deterministic")
	}
}

func TestGeneratedDocumentsParse(t *testing.T) {
	for _, src := range []string{
		GenerateRecordsXML(100, 5),
		GenerateAuctionXML(20, 30, 50, 5),
	} {
		if _, err := ParseXML(src, nil); err != nil {
			t.Errorf("generated XML unparseable: %v", err)
		}
	}
}

func TestRecordsStylesheetOnGeneratedData(t *testing.T) {
	out := transform(t, GenerateRecordsXML(50, 7), RecordsStylesheet)
	if !strings.Contains(out, "<table>") || strings.Count(out, "<tr") != 50 {
		t.Errorf("table rows = %d, want 50", strings.Count(out, "<tr"))
	}
}

func TestAuctionStylesheetRunsAllQueries(t *testing.T) {
	out := transform(t, GenerateAuctionXML(30, 40, 80, 7), AuctionStylesheet)
	for q := 1; q <= 18; q++ {
		if !strings.Contains(out, "<q"+itoa(q)) {
			t.Errorf("query %d missing from combined output", q)
		}
	}
	// q1 counts people.
	if !strings.Contains(out, "<q1>30</q1>") {
		t.Errorf("q1 wrong: %s", out[:200])
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	alberta := 0
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
		}
	}
	if alberta != 5 {
		t.Errorf("alberta workloads = %d, want 5 (paper ships five)", alberta)
	}
}

func TestBenchmarkRunProfiled(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	p := perf.New()
	r, err := core.Run(b, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checksum == 0 {
		t.Error("zero checksum")
	}
	rep := p.Report()
	for _, m := range []string{"parse_xml", "match_template", "serialize"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage: %v", m, rep.Coverage)
		}
	}
}

func TestBenchmarkDeterminism(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.Run(b, w, perf.New())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Run(b, w, perf.New())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Checksum != r2.Checksum {
		t.Error("nondeterministic checksum")
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsParseable(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		xw := w.(Workload)
		if _, err := ParseXML(xw.XML, nil); err != nil {
			t.Errorf("%s: bad XML: %v", xw.Name, err)
		}
		if _, err := CompileStylesheet(xw.Stylesheet); err != nil {
			t.Errorf("%s: bad stylesheet: %v", xw.Name, err)
		}
	}
}
