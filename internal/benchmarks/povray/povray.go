package povray

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// SceneKind is the paper's workload taxonomy.
type SceneKind int

// Scene categories.
const (
	// SceneCollection renders moderately complex geometry made of simple
	// primitives ("real-world uses of POV-Ray").
	SceneCollection SceneKind = iota
	// SceneLumpy renders a single object over a checkered plane lit by
	// two spotlights (floating-point stress).
	SceneLumpy
	// ScenePrimitive renders built-in primitives emphasizing reflection,
	// refraction and camera aperture.
	ScenePrimitive
)

// String names the kind.
func (k SceneKind) String() string {
	switch k {
	case SceneCollection:
		return "collection"
	case SceneLumpy:
		return "lumpy"
	case ScenePrimitive:
		return "primitive"
	default:
		return fmt.Sprintf("SceneKind(%d)", int(k))
	}
}

// BuildScene constructs a deterministic scene of the given kind.
func BuildScene(kind SceneKind, complexity int, seed int64) *Scene {
	rng := rand.New(rand.NewSource(seed))
	sc := &Scene{
		Background: Vec3{0.1, 0.12, 0.18},
		MaxDepth:   4,
		Camera: Camera{
			Pos: Vec3{0, 2.5, -7}, LookAt: Vec3{0, 0.8, 0},
			FOV: math.Pi / 3,
		},
	}
	floor := &Plane{Y: 0, Mat: Material{
		Color: Vec3{0.9, 0.9, 0.9}, Color2: Vec3{0.1, 0.1, 0.1},
		Checker: true, Reflectivity: 0.1,
	}}
	switch kind {
	case SceneCollection:
		sc.Objects = append(sc.Objects, floor)
		for i := 0; i < complexity; i++ {
			mat := Material{
				Color:     Vec3{0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64()},
				Specular:  0.4,
				Shininess: 24,
			}
			pos := Vec3{-4 + 8*rng.Float64(), 0.3 + 1.5*rng.Float64(), -2 + 6*rng.Float64()}
			if i%3 == 0 {
				half := 0.2 + 0.4*rng.Float64()
				sc.Objects = append(sc.Objects, &Box{
					Min: pos.Sub(Vec3{half, half, half}),
					Max: pos.Add(Vec3{half, half, half}),
					Mat: mat,
				})
			} else {
				sc.Objects = append(sc.Objects, &Sphere{Center: pos, Radius: 0.25 + 0.5*rng.Float64(), Mat: mat})
			}
		}
		sc.Lights = []Light{
			{Pos: Vec3{-6, 8, -6}, Color: Vec3{0.9, 0.9, 0.85}},
			{Pos: Vec3{5, 6, -3}, Color: Vec3{0.3, 0.3, 0.4}},
		}
	case SceneLumpy:
		sc.Objects = append(sc.Objects, floor)
		// A lump: a cluster of overlapping spheres forming one object.
		for i := 0; i < complexity; i++ {
			theta := rng.Float64() * 2 * math.Pi
			phi := rng.Float64() * math.Pi
			r := 0.9 * rng.Float64()
			center := Vec3{
				r * math.Sin(phi) * math.Cos(theta),
				1.2 + 0.7*r*math.Cos(phi),
				r * math.Sin(phi) * math.Sin(theta),
			}
			sc.Objects = append(sc.Objects, &Sphere{
				Center: center,
				Radius: 0.35 + 0.25*rng.Float64(),
				Mat: Material{
					Color: Vec3{0.8, 0.5, 0.3}, Specular: 0.7, Shininess: 48,
				},
			})
		}
		// Two spotlights, per the paper.
		mkSpot := func(pos Vec3) Light {
			dir := Vec3{0, 1.2, 0}.Sub(pos).Norm()
			return Light{
				Pos: pos, Color: Vec3{1, 0.95, 0.9},
				Spot: true, Direction: dir, CosCutoff: math.Cos(math.Pi / 7),
			}
		}
		sc.Lights = []Light{mkSpot(Vec3{-4, 7, -4}), mkSpot(Vec3{4, 6, -3})}
	case ScenePrimitive:
		sc.Objects = append(sc.Objects, floor,
			&Sphere{Center: Vec3{-1.4, 1, 0}, Radius: 1, Mat: Material{
				Color: Vec3{0.1, 0.1, 0.1}, Specular: 1, Shininess: 96, Reflectivity: 0.8,
			}},
			&Sphere{Center: Vec3{1.4, 1, 0}, Radius: 1, Mat: Material{
				Color: Vec3{0.05, 0.05, 0.1}, Transparency: 0.9, IOR: 1.5, Specular: 0.8, Shininess: 96,
			}},
			&Box{Min: Vec3{-0.4, 0, 2.0}, Max: Vec3{0.4, 2.2, 2.8}, Mat: Material{
				Color: Vec3{0.2, 0.7, 0.3}, Specular: 0.4, Shininess: 16, Reflectivity: 0.2,
			}},
		)
		sc.Lights = []Light{
			{Pos: Vec3{-5, 8, -5}, Color: Vec3{1, 1, 1}},
			{Pos: Vec3{6, 4, -2}, Color: Vec3{0.4, 0.4, 0.5}},
		}
		// Camera lens aperture exercises depth of field.
		sc.Camera.Aperture = 0.12
		sc.Camera.FocalDist = 7
	}
	return sc
}

// Workload is one 511.povray_r input.
type Workload struct {
	core.Meta
	Scene      SceneKind
	Complexity int
	W, H       int
	Seed       int64
}

// Benchmark is the 511.povray_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "511.povray_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "Ray tracing" }

// Workloads returns SPEC-style inputs plus the seven Alberta workloads in
// the paper's collection/lumpy/primitive split.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, sk SceneKind, cx, w, h int, seed int64) core.Workload {
		return Workload{Meta: core.Meta{Name: name, Kind: kind}, Scene: sk, Complexity: cx, W: w, H: h, Seed: seed}
	}
	return []core.Workload{
		mk("test", core.KindTest, SceneCollection, 6, 32, 24, 1),
		mk("train", core.KindTrain, SceneCollection, 14, 64, 48, 2),
		mk("refrate", core.KindRefrate, SceneCollection, 24, 96, 72, 3),
		mk("alberta.collection-1", core.KindAlberta, SceneCollection, 18, 80, 60, 11),
		mk("alberta.collection-2", core.KindAlberta, SceneCollection, 30, 80, 60, 12),
		mk("alberta.collection-3", core.KindAlberta, SceneCollection, 12, 96, 72, 13),
		mk("alberta.lumpy-1", core.KindAlberta, SceneLumpy, 10, 80, 60, 14),
		mk("alberta.lumpy-2", core.KindAlberta, SceneLumpy, 18, 80, 60, 15),
		mk("alberta.primitive-1", core.KindAlberta, ScenePrimitive, 0, 80, 60, 16),
		mk("alberta.primitive-2", core.KindAlberta, ScenePrimitive, 0, 96, 72, 17),
	}, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	kinds := []SceneKind{SceneCollection, SceneLumpy, ScenePrimitive}
	return Workload{
		Meta:       core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Scene:      kinds[i%len(kinds)],
		Complexity: 8 + (i%4)*6,
		W:          64, H: 48,
		Seed: seed + int64(i),
	}, nil
}

// preparedScene holds the built scene, immutable after Prepare: the tracer
// only reads it while rendering.
type preparedScene struct {
	b  *Benchmark
	pw Workload
	sc *Scene
}

// Prepare implements core.Benchmark: build the scene once, uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	pw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	if pw.W <= 0 || pw.H <= 0 {
		return nil, fmt.Errorf("povray: %s: bad image size %dx%d", pw.Name, pw.W, pw.H)
	}
	return &preparedScene{b: b, pw: pw, sc: BuildScene(pw.Scene, pw.Complexity, pw.Seed)}, nil
}

// Execute implements core.PreparedWorkload: trace the prepared scene.
func (ps *preparedScene) Execute(p *perf.Profiler) (core.Result, error) {
	b, pw := ps.b, ps.pw
	tr := NewTracer(p)
	img := tr.Render(ps.sc, pw.W, pw.H)
	// A degenerate all-background image means the scene failed to build.
	distinct := map[byte]bool{}
	for _, v := range img {
		distinct[v] = true
	}
	if len(distinct) < 3 {
		return core.Result{}, fmt.Errorf("povray: %s: degenerate render", pw.Name)
	}
	sum := core.NewChecksum().AddBytes(img).AddUint64(tr.Rays)
	return core.Result{
		Benchmark: b.Name(),
		Workload:  pw.Name,
		Kind:      pw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
