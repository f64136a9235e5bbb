package povray

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func almostEqual(a, b Vec3, tol float64) bool {
	return math.Abs(a.X-b.X) < tol && math.Abs(a.Y-b.Y) < tol && math.Abs(a.Z-b.Z) < tol
}

func TestVectorOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Dot(b) != 32 {
		t.Errorf("dot = %v", a.Dot(b))
	}
	if !almostEqual(a.Cross(b), Vec3{-3, 6, -3}, 1e-12) {
		t.Errorf("cross = %v", a.Cross(b))
	}
	if math.Abs(Vec3{3, 4, 0}.Len()-5) > 1e-12 {
		t.Error("len")
	}
	n := Vec3{0, 0, 9}.Norm()
	if !almostEqual(n, Vec3{0, 0, 1}, 1e-12) {
		t.Errorf("norm = %v", n)
	}
}

func TestSphereIntersect(t *testing.T) {
	s := &Sphere{Center: Vec3{0, 0, 5}, Radius: 1}
	h, ok := s.Intersect(Vec3{0, 0, 0}, Vec3{0, 0, 1})
	if !ok || math.Abs(h.T-4) > 1e-9 {
		t.Fatalf("hit = %+v ok=%v, want t=4", h, ok)
	}
	if !almostEqual(h.Normal, Vec3{0, 0, -1}, 1e-9) {
		t.Errorf("normal = %v", h.Normal)
	}
	if _, ok := s.Intersect(Vec3{0, 0, 0}, Vec3{0, 1, 0}); ok {
		t.Error("miss reported as hit")
	}
	// Ray starting inside hits the far side.
	h, ok = s.Intersect(Vec3{0, 0, 5}, Vec3{0, 0, 1})
	if !ok || math.Abs(h.T-1) > 1e-9 {
		t.Errorf("inside hit = %+v", h)
	}
}

func TestPlaneIntersectAndChecker(t *testing.T) {
	pl := &Plane{Y: 0, Mat: Material{
		Color: Vec3{1, 1, 1}, Color2: Vec3{0, 0, 0}, Checker: true,
	}}
	h, ok := pl.Intersect(Vec3{0.5, 1, 0.5}, Vec3{0, -1, 0})
	if !ok || math.Abs(h.T-1) > 1e-9 {
		t.Fatalf("plane hit = %+v", h)
	}
	h2, _ := pl.Intersect(Vec3{1.5, 1, 0.5}, Vec3{0, -1, 0})
	if h.Mat.Color == h2.Mat.Color {
		t.Error("checker texture should alternate between adjacent tiles")
	}
	if _, ok := pl.Intersect(Vec3{0, 1, 0}, Vec3{0, 1, 0}); ok {
		t.Error("ray leaving the plane should miss")
	}
}

func TestBoxIntersect(t *testing.T) {
	b := &Box{Min: Vec3{-1, -1, 4}, Max: Vec3{1, 1, 6}}
	h, ok := b.Intersect(Vec3{0, 0, 0}, Vec3{0, 0, 1})
	if !ok || math.Abs(h.T-4) > 1e-9 {
		t.Fatalf("box hit = %+v ok=%v", h, ok)
	}
	if !almostEqual(h.Normal, Vec3{0, 0, -1}, 1e-9) {
		t.Errorf("box normal = %v", h.Normal)
	}
	if _, ok := b.Intersect(Vec3{5, 0, 0}, Vec3{0, 0, 1}); ok {
		t.Error("parallel miss reported as hit")
	}
}

func TestShadows(t *testing.T) {
	// A blocker between the light and the floor must darken the point.
	sc := &Scene{
		Objects: []Object{
			&Plane{Y: 0, Mat: Material{Color: Vec3{1, 1, 1}}},
			&Sphere{Center: Vec3{0, 2, 0}, Radius: 0.8, Mat: Material{Color: Vec3{1, 0, 0}}},
		},
		Lights:   []Light{{Pos: Vec3{0, 5, 0}, Color: Vec3{1, 1, 1}}},
		MaxDepth: 2,
	}
	tr := NewTracer(nil)
	shadowed := tr.Trace(sc, Vec3{0, 0.5, -3}, Vec3{0, -0.15, 0.97}.Norm(), 0)
	lit := tr.Trace(sc, Vec3{3, 0.5, -3}, Vec3{0, -0.15, 0.97}.Norm(), 0)
	if shadowed.X >= lit.X {
		t.Errorf("shadowed %v should be darker than lit %v", shadowed, lit)
	}
}

func TestReflectionShowsEnvironment(t *testing.T) {
	// A perfect mirror sphere over a red floor reflects red downward rays.
	sc := &Scene{
		Objects: []Object{
			&Plane{Y: 0, Mat: Material{Color: Vec3{1, 0, 0}}},
			&Sphere{Center: Vec3{0, 2, 0}, Radius: 1, Mat: Material{
				Color: Vec3{0, 0, 0}, Reflectivity: 1,
			}},
		},
		Lights:     []Light{{Pos: Vec3{0, 10, -5}, Color: Vec3{1, 1, 1}}},
		Background: Vec3{0, 0, 1},
		MaxDepth:   3,
	}
	tr := NewTracer(nil)
	// Aim at the sphere's lower half so the reflection goes to the floor.
	col := tr.Trace(sc, Vec3{0, 1.0, -4}, Vec3{0, 0.05, 1}.Norm(), 0)
	if col.X <= col.Z {
		t.Errorf("mirror should reflect the red floor, got %v", col)
	}
}

func TestSpotlightCone(t *testing.T) {
	spot := Light{
		Pos: Vec3{0, 5, 0}, Color: Vec3{1, 1, 1},
		Spot: true, Direction: Vec3{0, -1, 0}, CosCutoff: math.Cos(math.Pi / 12),
	}
	sc := &Scene{
		Objects:  []Object{&Plane{Y: 0, Mat: Material{Color: Vec3{1, 1, 1}}}},
		Lights:   []Light{spot},
		MaxDepth: 1,
	}
	tr := NewTracer(nil)
	inside := tr.Trace(sc, Vec3{0, 1, -0.2}, Vec3{0, -1, 0.1}.Norm(), 0)
	outside := tr.Trace(sc, Vec3{8, 1, -0.2}, Vec3{0, -1, 0.1}.Norm(), 0)
	if inside.X <= outside.X {
		t.Errorf("inside-cone %v should be brighter than outside %v", inside, outside)
	}
}

func TestRenderDeterministicAndNonTrivial(t *testing.T) {
	render := func() []byte {
		sc := BuildScene(SceneLumpy, 8, 3)
		return NewTracer(nil).Render(sc, 40, 30)
	}
	a, b := render(), render()
	if len(a) != 40*30*3 {
		t.Fatalf("image size %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("render not deterministic")
		}
	}
}

func TestApertureBlursOutOfFocus(t *testing.T) {
	// With a large aperture, geometry far from the focal plane changes
	// relative to the pinhole render; the image must still be valid.
	sc := BuildScene(ScenePrimitive, 0, 1)
	pin := *sc
	pin.Camera.Aperture = 0
	imgP := NewTracer(nil).Render(&pin, 32, 24)
	imgA := NewTracer(nil).Render(sc, 32, 24)
	diff := 0
	for i := range imgP {
		if imgP[i] != imgA[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("aperture rendering should differ from pinhole")
	}
}

func TestSceneKindString(t *testing.T) {
	if SceneCollection.String() != "collection" || SceneLumpy.String() != "lumpy" ||
		ScenePrimitive.String() != "primitive" {
		t.Error("SceneKind.String misbehaves")
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	alberta := 0
	kinds := map[SceneKind]int{}
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
			kinds[w.(Workload).Scene]++
		}
	}
	if alberta != 7 {
		t.Errorf("alberta workloads = %d, want 7 (paper ships seven)", alberta)
	}
	if kinds[SceneCollection] == 0 || kinds[SceneLumpy] == 0 || kinds[ScenePrimitive] == 0 {
		t.Errorf("missing a scene category: %v", kinds)
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
	for _, m := range []string{"trace_ray", "intersect_all", "shade"} {
		if rep.Coverage[m] == 0 {
			t.Errorf("method %s missing from coverage", m)
		}
	}
}

func TestBenchmarkRejectsForeignWorkload(t *testing.T) {
	if _, err := New().Prepare(core.Meta{}); !errors.Is(err, core.ErrUnknownWorkload) {
		t.Errorf("err = %v", err)
	}
}

func TestGenerateWorkloadsRun(t *testing.T) {
	b := New()
	ws, err := core.GenerateWorkloads(b, 17, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
