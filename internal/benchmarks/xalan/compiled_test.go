package xalan

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

// runBoth transforms one document through the retained tree-walker and the
// compiled instruction stream, returning rendered output and the modeled
// event reports of the transform phase for each.
func runBoth(t *testing.T, xml, ss string) (string, string, perf.Report, perf.Report) {
	t.Helper()
	sheet, err := CompileStylesheet(ss)
	if err != nil {
		t.Fatalf("compile stylesheet: %v", err)
	}
	doc, err := ParseXML(xml, nil)
	if err != nil {
		t.Fatalf("parse xml: %v", err)
	}

	p1 := perf.New()
	treeOut := NewTransformer(sheet, p1).Transform(doc)
	r1 := p1.Report()
	r1.WallTime = 0

	p2 := perf.New()
	compOut := compileSheet(sheet).transform(doc, p2)
	r2 := p2.Report()
	r2.WallTime = 0

	return Serialize(treeOut, nil), Serialize(compOut, nil), r1, r2
}

// assertSameTransform requires the two engines to agree on output and on
// the full event stream — the bit-identity contract for the compiled path.
func assertSameTransform(t *testing.T, xml, ss string) {
	t.Helper()
	treeStr, compStr, treeRep, compRep := runBoth(t, xml, ss)
	if treeStr != compStr {
		t.Errorf("output diverges\ntree: %q\ncompiled: %q", treeStr, compStr)
	}
	if !reflect.DeepEqual(treeRep, compRep) {
		t.Errorf("profiler report diverges\ntree: %+v\ncompiled: %+v", treeRep, compRep)
	}
}

// TestCompiledMatchesTreeWalk sweeps every xalan workload through both
// engines. The two largest inputs join under ALBERTA_DIFF_FULL=1.
func TestCompiledMatchesTreeWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	full := os.Getenv("ALBERTA_DIFF_FULL") == "1"
	ws, err := New().Workloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		xw := w.(Workload)
		if !full && (xw.WorkloadKind() == core.KindRefrate || xw.Name == "alberta.xsltmark-large" || xw.Name == "alberta.xmark-large") {
			continue
		}
		t.Run(xw.Name, func(t *testing.T) {
			assertSameTransform(t, xw.XML, xw.Stylesheet)
		})
	}
}

// TestCompiledMatchesTreeWalkCorners pins the semantic corners of template
// dispatch and selection on both engines.
func TestCompiledMatchesTreeWalkCorners(t *testing.T) {
	doc := `<site a="1"><people><person id="p0"><name>ann</name></person><person id="p1"><name>bob</name></person></people><regions><region name="ca"><item><price>5</price></item></region></regions>note</site>`
	sheets := []string{
		// text() template, wildcard fallback, apply without select.
		`<stylesheet><template match="/"><apply-templates/></template><template match="text()"><text value="[T]"/></template><template match="*"><element name="w"><value-of select="name()"/></element><apply-templates/></template></stylesheet>`,
		// Descendant select, multi-step paths with wildcard steps, count.
		`<stylesheet><template match="/"><count select="//name"/><count select="people/*"/><count select="*/*"/><for-each select="//person"><value-of select="@id"/></for-each></template></stylesheet>`,
		// Predicates: eq over attr and path, bare attr, bare path, name().
		`<stylesheet><template match="/"><if test="@a='1'"><text value="A"/></if><for-each select="people/person"><if test="name='ann'"><text value="N"/></if><if test="@id"><text value="I"/></if><if test="missing"><text value="M"/></if><if test="name()='person'"><text value="P"/></if></for-each></template></stylesheet>`,
		// Unknown instructions copy through as literals; attribute + "." and
		// "" selects; nested elements.
		`<stylesheet><template match="/"><div class="x"><attribute name="all" select="."/><value-of select=""/><span><value-of select="regions/region/item/price"/></span></div></template></stylesheet>`,
		// Name-dispatch templates ahead of root; built-in recursion reaches
		// person before any template matches site.
		`<stylesheet><template match="person"><element name="p"><value-of select="name"/></element></template><template match="name"><text value="never"/></template></stylesheet>`,
	}
	for _, ss := range sheets {
		assertSameTransform(t, doc, ss)
	}
}

// TestPreparedUsesCompiledSheet proves Prepare lowers the stylesheet and
// repeated Executes on one prepared workload stay bit-identical.
func TestPreparedUsesCompiledSheet(t *testing.T) {
	b := New()
	w, err := core.FindWorkload(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	pwp, err := b.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	if pwp.(*prepared).cs == nil {
		t.Fatal("prepared workload missing compiled sheet")
	}
	var first core.Result
	var firstRep perf.Report
	for rep := 0; rep < 4; rep++ {
		p := perf.New()
		res, err := pwp.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		r := p.Report()
		r.WallTime = 0
		r.Methods = append([]perf.MethodProfile(nil), r.Methods...)
		if rep == 0 {
			first, firstRep = res, r
			continue
		}
		if res.Checksum != first.Checksum {
			t.Errorf("rep %d checksum %x != first %x", rep, res.Checksum, first.Checksum)
		}
		if !reflect.DeepEqual(r, firstRep) {
			t.Errorf("rep %d report diverges from first", rep)
		}
	}
}

// FuzzMatchPatternDifferential fuzzes the pre-decomposed pattern space —
// template match patterns, select paths, and predicates — through both
// engines and requires identical output and event streams.
func FuzzMatchPatternDifferential(f *testing.F) {
	for _, seed := range [][3]string{
		{"person", "people/person", "name='ann'"},
		{"*", "//name", "@id"},
		{"text()", ".", "missing"},
		{"/", "*/*", "name()='site'"},
		{"name", "//", "=x"},
		{"people", "a//b", "@="},
		{"", "people/", "people='x'"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	doc := `<site a="1"><people><person id="p0"><name>ann</name></person></people>tail</site>`
	xmlSafe := func(s string) bool {
		if len(s) > 24 || strings.ContainsAny(s, "<>&\"'") {
			return false
		}
		for i := 0; i < len(s); i++ {
			if s[i] < 0x20 || s[i] >= 0x7f {
				return false
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, match, sel, test string) {
		if !xmlSafe(match) || !xmlSafe(sel) || !xmlSafe(test) {
			t.Skip()
		}
		ss := `<stylesheet><template match="/"><for-each select="` + sel + `"><value-of select="` + sel + `"/></for-each><if test="` + test + `"><text value="hit"/></if><apply-templates/></template><template match="` + match + `"><count select="` + sel + `"/></template><template match="*"><apply-templates/></template></stylesheet>`
		if _, err := CompileStylesheet(ss); err != nil {
			t.Skip() // fuzzed string broke the XML shape itself
		}
		assertSameTransform(t, doc, ss)
	})
}

// BenchmarkTransform compares the two engines on the train-sized records
// workload, uninstrumented (document parsed outside the loop).
func BenchmarkTransform(b *testing.B) {
	xml := GenerateRecordsXML(1500, 2)
	sheet, err := CompileStylesheet(RecordsStylesheet)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := ParseXML(xml, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewTransformer(sheet, nil).Transform(doc)
		}
	})
	cs := compileSheet(sheet)
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cs.transform(doc, nil)
		}
	})
}
