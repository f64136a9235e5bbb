// Package blender reproduces 526.blender_r: 3D image creation through
// rendering of scene files. A workload is a scene description (the .blend
// file) plus a frame range; the renderer is a transform + z-buffer
// rasterizer with flat shading. The Crazy Glue and Elephants Dream .blend
// downloads are replaced by two procedural scene families, and the paper's
// two helper scripts are reproduced: CheckScene identifies scenes the
// renderer supports, and SelectScenes randomly picks renderable scenes for
// a workload.
package blender

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/perf"
)

// Vec is a 3-vector.
type Vec struct{ X, Y, Z float64 }

func (a Vec) sub(b Vec) Vec { return Vec{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }
func (a Vec) cross(b Vec) Vec {
	return Vec{a.Y*b.Z - a.Z*b.Y, a.Z*b.X - a.X*b.Z, a.X*b.Y - a.Y*b.X}
}
func (a Vec) dot(b Vec) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }
func (a Vec) norm() Vec {
	l := math.Sqrt(a.dot(a))
	if l == 0 {
		return a
	}
	return Vec{a.X / l, a.Y / l, a.Z / l}
}

// Triangle is one mesh face.
type Triangle struct {
	A, B, C Vec
	Shade   float64 // base gray level 0..1
}

// Mesh is a triangle soup.
type Mesh struct {
	Tris []Triangle
}

// Scene is the parsed .blend stand-in.
type Scene struct {
	Name   string
	Meshes []*Mesh
	// Spin is radians of rotation per frame (animation).
	Spin float64
	// Supported mirrors the paper's observation that not every .blend
	// file works with the benchmark: unsupported scenes must be filtered
	// out by CheckScene.
	Supported bool
}

// UVSphere builds a lat/long sphere mesh.
func UVSphere(center Vec, radius float64, segments int, shade float64) *Mesh {
	m := &Mesh{}
	for i := 0; i < segments; i++ {
		th0 := math.Pi * float64(i) / float64(segments)
		th1 := math.Pi * float64(i+1) / float64(segments)
		for j := 0; j < 2*segments; j++ {
			ph0 := math.Pi * float64(j) / float64(segments)
			ph1 := math.Pi * float64(j+1) / float64(segments)
			p := func(th, ph float64) Vec {
				return Vec{
					center.X + radius*math.Sin(th)*math.Cos(ph),
					center.Y + radius*math.Cos(th),
					center.Z + radius*math.Sin(th)*math.Sin(ph),
				}
			}
			a, b, c, d := p(th0, ph0), p(th1, ph0), p(th1, ph1), p(th0, ph1)
			m.Tris = append(m.Tris,
				Triangle{A: a, B: b, C: c, Shade: shade},
				Triangle{A: a, B: c, C: d, Shade: shade})
		}
	}
	return m
}

// Cuboid builds a box mesh.
func Cuboid(min, max Vec, shade float64) *Mesh {
	v := [8]Vec{
		{min.X, min.Y, min.Z}, {max.X, min.Y, min.Z}, {max.X, max.Y, min.Z}, {min.X, max.Y, min.Z},
		{min.X, min.Y, max.Z}, {max.X, min.Y, max.Z}, {max.X, max.Y, max.Z}, {min.X, max.Y, max.Z},
	}
	quads := [6][4]int{
		{0, 1, 2, 3}, {5, 4, 7, 6}, {4, 0, 3, 7}, {1, 5, 6, 2}, {3, 2, 6, 7}, {4, 5, 1, 0},
	}
	m := &Mesh{}
	for _, q := range quads {
		m.Tris = append(m.Tris,
			Triangle{A: v[q[0]], B: v[q[1]], C: v[q[2]], Shade: shade},
			Triangle{A: v[q[0]], B: v[q[2]], C: v[q[3]], Shade: shade})
	}
	return m
}

// SceneKind selects the scene family (the two .blend sources).
type SceneKind int

// The two Alberta scene sources.
const (
	// SceneCrazyGlue: a cluster of glued-together primitives.
	SceneCrazyGlue SceneKind = iota
	// SceneElephantsDream: a larger organic arrangement of spheres.
	SceneElephantsDream
)

// String names the kind.
func (k SceneKind) String() string {
	if k == SceneCrazyGlue {
		return "crazyglue"
	}
	return "elephantsdream"
}

// BuildScene constructs a deterministic scene. Some generated scenes are
// marked unsupported (resource-only .blend files in the paper's terms).
func BuildScene(kind SceneKind, detail int, seed int64) *Scene {
	rng := rand.New(rand.NewSource(seed))
	sc := &Scene{Name: fmt.Sprintf("%s-%d", kind, seed), Spin: 0.15, Supported: true}
	switch kind {
	case SceneCrazyGlue:
		for i := 0; i < 3+detail; i++ {
			c := Vec{-1.5 + 3*rng.Float64(), -1 + 2*rng.Float64(), -1.5 + 3*rng.Float64()}
			if i%2 == 0 {
				half := 0.3 + 0.3*rng.Float64()
				sc.Meshes = append(sc.Meshes, Cuboid(
					Vec{c.X - half, c.Y - half, c.Z - half},
					Vec{c.X + half, c.Y + half, c.Z + half},
					0.3+0.6*rng.Float64()))
			} else {
				sc.Meshes = append(sc.Meshes, UVSphere(c, 0.3+0.3*rng.Float64(), 4+detail/3, 0.3+0.6*rng.Float64()))
			}
		}
	case SceneElephantsDream:
		for i := 0; i < 2+detail/2; i++ {
			t := float64(i) * 0.8
			c := Vec{1.8 * math.Cos(t), 0.4 * float64(i%3), 1.8 * math.Sin(t)}
			sc.Meshes = append(sc.Meshes, UVSphere(c, 0.5+0.2*rng.Float64(), 5+detail/2, 0.4+0.5*rng.Float64()))
		}
	}
	// One in five scenes is a resource file, not meant to be rendered.
	if seed%5 == 0 {
		sc.Supported = false
	}
	return sc
}

// CheckScene is the paper's first script: identify .blend files that work
// with the benchmark.
func CheckScene(sc *Scene) error {
	if !sc.Supported {
		return fmt.Errorf("blender: scene %s uses unsupported features", sc.Name)
	}
	if len(sc.Meshes) == 0 {
		return fmt.Errorf("blender: scene %s has nothing to render", sc.Name)
	}
	return nil
}

// SelectScenes is the paper's second script: randomly select renderable
// scenes for use in a workload.
func SelectScenes(candidates []*Scene, n int, seed int64) []*Scene {
	rng := rand.New(rand.NewSource(seed))
	var ok []*Scene
	for _, sc := range candidates {
		if CheckScene(sc) == nil {
			ok = append(ok, sc)
		}
	}
	var out []*Scene
	for i := 0; i < n && len(ok) > 0; i++ {
		out = append(out, ok[rng.Intn(len(ok))])
	}
	return out
}

const fbBase = 0xF0_0000_0000

// Renderer rasterizes frames.
type Renderer struct {
	W, H int
	p    *perf.Profiler
	// TrisRasterized counts processed triangles (work metric).
	TrisRasterized uint64
}

// NewRenderer returns a renderer.
func NewRenderer(w, h int, p *perf.Profiler) (*Renderer, error) {
	if w < 8 || h < 8 {
		return nil, fmt.Errorf("blender: frame %dx%d too small", w, h)
	}
	if p != nil {
		p.SetFootprint("transform", 3<<10)
		p.SetFootprint("rasterize", 6<<10)
		p.SetFootprint("zbuffer", 2<<10)
	}
	return &Renderer{W: w, H: h, p: p}, nil
}

// RenderFrame draws the scene rotated for the given frame index and returns
// the grayscale framebuffer.
func (r *Renderer) RenderFrame(sc *Scene, frame int) []float64 {
	angle := sc.Spin * float64(frame)
	sin, cos := math.Sin(angle), math.Cos(angle)
	camZ := -6.0
	light := Vec{0.4, 0.8, -0.45}.norm()

	fb := make([]float64, r.W*r.H)
	zb := make([]float64, r.W*r.H)
	for i := range zb {
		zb[i] = math.Inf(1)
	}
	for _, mesh := range sc.Meshes {
		for _, tri := range mesh.Tris {
			if r.p != nil {
				r.p.Enter("transform")
			}
			// Rotate about Y and translate into camera space.
			xf := func(v Vec) Vec {
				return Vec{v.X*cos + v.Z*sin, v.Y, -v.X*sin + v.Z*cos - camZ}
			}
			a, b, c := xf(tri.A), xf(tri.B), xf(tri.C)
			if r.p != nil {
				r.p.Ops(36)
				r.p.LongOps(1)
				r.p.Leave()
			}
			if a.Z <= 0.1 || b.Z <= 0.1 || c.Z <= 0.1 {
				continue // behind the camera
			}
			// Flat shading from the world-space normal.
			n := tri.B.sub(tri.A).cross(tri.C.sub(tri.A)).norm()
			shade := tri.Shade * (0.25 + 0.75*math.Abs(n.dot(light)))
			// Project.
			px := func(v Vec) (float64, float64) {
				scale := float64(r.H) * 0.9
				return float64(r.W)/2 + scale*v.X/v.Z, float64(r.H)/2 - scale*v.Y/v.Z
			}
			ax, ay := px(a)
			bx, by := px(b)
			cx, cy := px(c)
			r.rasterize(fb, zb, ax, ay, a.Z, bx, by, b.Z, cx, cy, c.Z, shade)
			r.TrisRasterized++
		}
	}
	return fb
}

// rasterize fills one triangle with z-buffering (barycentric coverage).
func (r *Renderer) rasterize(fb, zb []float64, ax, ay, az, bx, by, bz, cx, cy, cz, shade float64) {
	if r.p != nil {
		r.p.Enter("rasterize")
		defer r.p.Leave()
	}
	minX := int(math.Max(0, math.Floor(math.Min(ax, math.Min(bx, cx)))))
	maxX := int(math.Min(float64(r.W-1), math.Ceil(math.Max(ax, math.Max(bx, cx)))))
	minY := int(math.Max(0, math.Floor(math.Min(ay, math.Min(by, cy)))))
	maxY := int(math.Min(float64(r.H-1), math.Ceil(math.Max(ay, math.Max(by, cy)))))
	area := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	if math.Abs(area) < 1e-9 {
		return
	}
	inv := 1 / area
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			fx, fy := float64(x)+0.5, float64(y)+0.5
			w0 := ((bx-ax)*(fy-ay) - (by-ay)*(fx-ax)) * inv
			w1 := ((cx-bx)*(fy-by) - (cy-by)*(fx-bx)) * inv
			w2 := 1 - w0 - w1
			inside := w0 >= 0 && w1 >= 0 && w2 >= 0
			if r.p != nil && (x+y)%8 == 0 {
				r.p.Ops(14)
				r.p.Branch(130, inside)
			}
			if !inside {
				continue
			}
			// Interpolated depth (affine approximation).
			z := w1*az + w2*bz + w0*cz
			i := y*r.W + x
			if z < zb[i] {
				zb[i] = z
				fb[i] = shade
				if r.p != nil && i%16 == 0 {
					r.p.Enter("zbuffer")
					r.p.Load(fbBase + uint64(i)*8)
					r.p.Store(fbBase + uint64(i)*8)
					r.p.Ops(4)
					r.p.Leave()
				}
			}
		}
	}
}

// Workload is one 526.blender_r input: selected scenes, start frame and
// frame count (the paper: workloads "start rendering at different frames,
// and also vary the number of frames rendered").
type Workload struct {
	core.Meta
	Kind       SceneKind
	Detail     int
	SceneSeed  int64
	StartFrame int
	Frames     int
	W, H       int
}

// Benchmark is the 526.blender_r reproduction.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements core.Benchmark.
func (*Benchmark) Name() string { return "526.blender_r" }

// Area implements core.Benchmark.
func (*Benchmark) Area() string { return "3D rendering and animation" }

// Workloads returns SPEC-style inputs plus thirteen Alberta workloads drawn
// from the two scene families.
func (b *Benchmark) Workloads() ([]core.Workload, error) {
	mk := func(name string, kind core.Kind, sk SceneKind, detail int, seed int64, start, frames int) core.Workload {
		return Workload{
			Meta: core.Meta{Name: name, Kind: kind},
			Kind: sk, Detail: detail, SceneSeed: seed,
			StartFrame: start, Frames: frames, W: 64, H: 48,
		}
	}
	ws := []core.Workload{
		mk("test", core.KindTest, SceneCrazyGlue, 3, 1, 0, 1),
		mk("train", core.KindTrain, SceneCrazyGlue, 6, 2, 0, 3),
		mk("refrate", core.KindRefrate, SceneElephantsDream, 9, 3, 0, 6),
	}
	for i := 0; i < 13; i++ {
		kind := SceneCrazyGlue
		if i >= 6 {
			kind = SceneElephantsDream
		}
		// Seeds divisible by five generate unsupported scenes; skip them
		// as the CheckScene script would.
		seed := int64(101 + i)
		if seed%5 == 0 {
			seed++
		}
		ws = append(ws, mk(
			fmt.Sprintf("alberta.%d", i+1), core.KindAlberta,
			kind, 4+i%5, seed, i*2, 2+i%4))
	}
	return ws, nil
}

// GenerateWorkload implements core.Generator.
func (b *Benchmark) GenerateWorkload(seed int64, i int) (core.Workload, error) {
	s := seed + int64(i)
	if s%5 == 0 {
		s++
	}
	return Workload{
		Meta: core.Meta{Name: core.GeneratedName(seed, i), Kind: core.KindAlberta},
		Kind: SceneKind(i % 2), Detail: 3 + i%6, SceneSeed: s,
		StartFrame: i, Frames: 1 + i%4, W: 64, H: 48,
	}, nil
}

// prepared holds the built, checked scene; the renderer animates per frame
// by transforming into its own buffers, leaving the scene unchanged.
type prepared struct {
	b  *Benchmark
	bw Workload
	sc *Scene
}

// Prepare implements core.Benchmark: build and validate the scene once,
// uninstrumented.
func (b *Benchmark) Prepare(w core.Workload) (core.PreparedWorkload, error) {
	bw, ok := w.(Workload)
	if !ok {
		return nil, fmt.Errorf("%w: %T", core.ErrUnknownWorkload, w)
	}
	sc := BuildScene(bw.Kind, bw.Detail, bw.SceneSeed)
	if err := CheckScene(sc); err != nil {
		return nil, fmt.Errorf("blender: %s: %w", bw.Name, err)
	}
	return &prepared{b: b, bw: bw, sc: sc}, nil
}

// Execute implements core.PreparedWorkload: render every frame.
func (pw *prepared) Execute(p *perf.Profiler) (core.Result, error) {
	b, bw, sc := pw.b, pw.bw, pw.sc
	rnd, err := NewRenderer(bw.W, bw.H, p)
	if err != nil {
		return core.Result{}, err
	}
	sum := core.NewChecksum()
	for f := bw.StartFrame; f < bw.StartFrame+bw.Frames; f++ {
		fb := rnd.RenderFrame(sc, f)
		covered := 0
		for _, v := range fb {
			sum = sum.AddFloat(v)
			if v > 0 {
				covered++
			}
		}
		if covered == 0 {
			return core.Result{}, fmt.Errorf("blender: %s: frame %d rendered empty", bw.Name, f)
		}
	}
	sum = sum.AddUint64(rnd.TrisRasterized)
	return core.Result{
		Benchmark: b.Name(),
		Workload:  bw.Name,
		Kind:      bw.WorkloadKind(),
		Checksum:  sum.Value(),
	}, nil
}
