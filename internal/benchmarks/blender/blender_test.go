package blender

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
)

func TestMeshGenerators(t *testing.T) {
	sph := UVSphere(Vec{0, 0, 0}, 1, 6, 0.5)
	if len(sph.Tris) != 2*6*12 {
		t.Errorf("sphere tris = %d", len(sph.Tris))
	}
	box := Cuboid(Vec{-1, -1, -1}, Vec{1, 1, 1}, 0.5)
	if len(box.Tris) != 12 {
		t.Errorf("box tris = %d", len(box.Tris))
	}
}

func TestBuildSceneFamilies(t *testing.T) {
	cg := BuildScene(SceneCrazyGlue, 5, 1)
	ed := BuildScene(SceneElephantsDream, 5, 1)
	if len(cg.Meshes) == 0 || len(ed.Meshes) == 0 {
		t.Fatal("scenes empty")
	}
	if cg.Name == ed.Name {
		t.Error("scene names should differ by family")
	}
}

func TestCheckSceneRejectsUnsupported(t *testing.T) {
	// Seeds divisible by 5 are resource-only scenes.
	bad := BuildScene(SceneCrazyGlue, 4, 10)
	if err := CheckScene(bad); err == nil {
		t.Error("unsupported scene should be rejected")
	}
	good := BuildScene(SceneCrazyGlue, 4, 11)
	if err := CheckScene(good); err != nil {
		t.Errorf("supported scene rejected: %v", err)
	}
	if err := CheckScene(&Scene{Supported: true}); err == nil {
		t.Error("empty scene should be rejected")
	}
}

func TestSelectScenesFiltersAndPicks(t *testing.T) {
	var candidates []*Scene
	for s := int64(1); s <= 10; s++ {
		candidates = append(candidates, BuildScene(SceneCrazyGlue, 3, s))
	}
	picked := SelectScenes(candidates, 5, 9)
	if len(picked) != 5 {
		t.Fatalf("picked %d scenes", len(picked))
	}
	for _, sc := range picked {
		if CheckScene(sc) != nil {
			t.Error("selected an unsupported scene")
		}
	}
}

func TestRenderFrameCoversPixels(t *testing.T) {
	sc := BuildScene(SceneElephantsDream, 6, 2)
	r, err := NewRenderer(64, 48, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb := r.RenderFrame(sc, 0)
	covered := 0
	for _, v := range fb {
		if v > 0 {
			covered++
		}
	}
	if covered < 64 {
		t.Errorf("only %d pixels covered", covered)
	}
	if r.TrisRasterized == 0 {
		t.Error("no triangles rasterized")
	}
}

func TestAnimationChangesFrames(t *testing.T) {
	sc := BuildScene(SceneCrazyGlue, 5, 3)
	r, err := NewRenderer(48, 36, nil)
	if err != nil {
		t.Fatal(err)
	}
	f0 := r.RenderFrame(sc, 0)
	f5 := r.RenderFrame(sc, 5)
	same := true
	for i := range f0 {
		if f0[i] != f5[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("rotation should change the image between frames")
	}
}

func TestZBufferOcclusion(t *testing.T) {
	// A nearer triangle must overwrite a farther one.
	sc := &Scene{
		Supported: true,
		Meshes: []*Mesh{
			{Tris: []Triangle{
				{A: Vec{-2, -2, 2}, B: Vec{2, -2, 2}, C: Vec{0, 2, 2}, Shade: 0.2}, // far
				{A: Vec{-1, -1, 0}, B: Vec{1, -1, 0}, C: Vec{0, 1, 0}, Shade: 0.9}, // near
			}},
		},
	}
	r, err := NewRenderer(32, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb := r.RenderFrame(sc, 0)
	center := fb[16*32+16]
	if center < 0.3 {
		t.Errorf("center pixel = %v, expected the near bright triangle", center)
	}
}

func TestRendererValidation(t *testing.T) {
	if _, err := NewRenderer(4, 48, nil); err == nil {
		t.Error("tiny width should fail")
	}
}

func TestDeterminism(t *testing.T) {
	render := func() []float64 {
		sc := BuildScene(SceneCrazyGlue, 5, 4)
		r, err := NewRenderer(40, 30, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.RenderFrame(sc, 2)
	}
	a, b := render(), render()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("render not deterministic")
		}
	}
}

func TestWorkloadInventory(t *testing.T) {
	b := New()
	ws, err := b.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	alberta := 0
	starts := map[int]bool{}
	for _, w := range ws {
		if w.WorkloadKind() == core.KindAlberta {
			alberta++
			starts[w.(Workload).StartFrame] = true
		}
	}
	if alberta != 13 {
		t.Errorf("alberta workloads = %d, want 13 (paper ships thirteen)", alberta)
	}
	if len(starts) < 5 {
		t.Errorf("workloads should start at varied frames, got %d distinct", len(starts))
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
	for _, m := range []string{"transform", "rasterize"} {
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
	ws, err := core.GenerateWorkloads(b, 41, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := core.Run(b, w, perf.New()); err != nil {
			t.Errorf("%s: %v", w.WorkloadName(), err)
		}
	}
}
