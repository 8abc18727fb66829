// Package lisa is the public API of the LISA reproduction — a portable,
// GNN-guided mapping framework for spatial accelerators (Li et al., "LISA:
// Graph Neural Network based Portable Mapping on Spatial Accelerators",
// HPCA 2022).
//
// The intended workflow mirrors the paper's Fig. 2:
//
//	ar := lisa.CGRA4x4()                    // pick / define an accelerator
//	fw := lisa.New(ar)                      // framework for that target
//	report := fw.Train(lisa.QuickTraining()) // one-off: labels + GNN (§IV-V)
//	g, _ := lisa.Kernel("gemm")             // a DFG (PolyBench or your own)
//	res := fw.Map(g)                        // label-aware mapping (§III)
//
// Everything heavy lives in internal packages; this package re-exports the
// types a downstream user needs and wires the pipeline together.
package lisa

import (
	"fmt"
	"math/rand"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/ilp"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/sim"
	"github.com/lisa-go/lisa/internal/traingen"
)

// Re-exported core types. These aliases are the public names; the internal
// packages are implementation detail.
type (
	// Graph is a dataflow graph (one loop-kernel body).
	Graph = dfg.Graph
	// Builder hand-lowers a kernel body into a Graph.
	Builder = dfg.Builder
	// Arch describes a spatial accelerator.
	Arch = arch.Arch
	// Labels is the per-DFG label set guiding the mapper (paper Table I).
	Labels = labels.Labels
	// Result is a mapping outcome (II, placement, routes, timing).
	Result = mapper.Result
	// MapOptions tunes the simulated-annealing engines.
	MapOptions = mapper.Options
	// Model is the per-accelerator bundle of four label GNNs.
	Model = gnn.Model
	// SimTrace is the output of a cycle-accurate simulation run.
	SimTrace = sim.Trace
)

// Accelerator constructors for the paper's six targets.
var (
	CGRA3x3         = arch.NewBaseline3x3
	CGRA4x4         = arch.NewBaseline4x4
	CGRA8x8         = arch.NewBaseline8x8
	CGRA4x4LessReg  = arch.NewLessRouting4x4
	CGRA4x4LessMem  = arch.NewLessMem4x4
	Systolic5x5     = arch.NewSystolic5x5
	Torus4x4        = arch.NewTorus4x4
	Hetero4x4       = arch.NewHetero4x4
	Targets         = arch.PaperTargets
	ExtendedTargets = arch.ExtendedTargets
	TargetByName    = arch.ByName
	NewCGRA         = arch.NewCGRA
	NewGraphBuilder = dfg.NewBuilder
	// LoadArch builds an accelerator from a JSON architecture spec
	// (io.Reader), the ADL counterpart of CGRA-ME's XML descriptions.
	LoadArch = arch.LoadArch
	// ParseDOT / ReadJSON load DFGs from files.
	ParseDOT = dfg.ParseDOT
	ReadDFG  = dfg.ReadJSON
)

// Kernel returns a fresh DFG for one of the PolyBench kernels the paper
// evaluates (gemm, atax, bicg, mvt, gesummv, symm, syrk, syr2k, trmm, 2mm,
// 3mm, doitgen).
func Kernel(name string) (*Graph, error) { return kernels.ByName(name) }

// KernelUnrolled returns the factor-2 unrolled version of a kernel.
func KernelUnrolled(name string) (*Graph, error) { return kernels.Unrolled(name) }

// KernelNames lists the available kernels.
func KernelNames() []string { return kernels.Names() }

// Unroll replicates a DFG body the given number of times.
func Unroll(g *Graph, factor int) *Graph { return dfg.Unroll(g, factor) }

// Framework is the per-accelerator LISA instance: train once, then derive
// labels and map any number of DFGs.
type Framework struct {
	Arch    Arch
	Model   *Model
	MapOpts MapOptions
}

// New creates an untrained framework for the accelerator. Mapping before
// Train falls back to the label initialization of §V-B, which is already a
// label-aware mapper — training sharpens the labels per architecture.
func New(ar Arch) *Framework { return &Framework{Arch: ar} }

// TrainOptions controls the one-off per-accelerator tuning pass.
type TrainOptions struct {
	// NumDFGs random DFGs are generated and labelled by iterative mapping.
	NumDFGs int
	// Iterations of the label-update loop per DFG.
	Iterations int
	// Epochs of GNN training (paper: 500).
	Epochs int
	Seed   int64
	// MapBudget is the SA movement budget while labelling.
	MapBudget int
}

// QuickTraining returns a laptop-scale training configuration (seconds to a
// couple of minutes); PaperTraining matches §VI.
func QuickTraining() TrainOptions {
	return TrainOptions{NumDFGs: 40, Iterations: 2, Epochs: 60, MapBudget: 700, Seed: 1}
}

// PaperTraining returns the paper-scale configuration (1000 DFGs, 500
// epochs).
func PaperTraining() TrainOptions {
	return TrainOptions{NumDFGs: 1000, Iterations: 4, Epochs: 500, MapBudget: 4000, Seed: 1}
}

// TrainReport summarizes the tuning pass.
type TrainReport struct {
	Generated, Mapped, Admitted int
	Accuracy                    [4]float64 // on the training set
}

// Train runs the paper's §V pipeline (random DFGs → iterative partial
// label-aware SA → candidate selection → filter) and fits the four GNNs.
func (f *Framework) Train(opt TrainOptions) TrainReport {
	if opt.NumDFGs == 0 {
		opt = QuickTraining()
	}
	cfg := traingen.DefaultConfig()
	cfg.NumDFGs = opt.NumDFGs
	cfg.Iterations = opt.Iterations
	cfg.Seed = opt.Seed
	cfg.MapOpts = mapper.Options{MaxMoves: opt.MapBudget}
	ds := traingen.Generate(f.Arch, cfg)

	m := gnn.NewModel(rand.New(rand.NewSource(opt.Seed)), f.Arch.Name())
	tc := gnn.DefaultTrainConfig()
	tc.Epochs = opt.Epochs
	m.Train(ds.Samples, tc)
	f.Model = m
	return TrainReport{
		Generated: ds.Stats.Generated,
		Mapped:    ds.Stats.Mapped,
		Admitted:  ds.Stats.Admitted,
		Accuracy:  m.Accuracy(ds.Samples),
	}
}

// DeriveLabels predicts the four labels for a DFG: the trained GNN when
// available, the §V-B initialization otherwise. The error is non-nil only
// when the model's serialized scale vectors do not match the current
// attribute dimensionality (version skew), which would otherwise produce
// silently garbage labels.
func (f *Framework) DeriveLabels(g *Graph) (*Labels, error) {
	if f.Model != nil {
		return f.Model.Predict(attr.Generate(g))
	}
	return labels.Initial(dfg.Analyze(g)), nil
}

// DeriveLabelsBatch predicts labels for many DFGs in order, each exactly
// as DeriveLabels would.
func (f *Framework) DeriveLabelsBatch(gs []*Graph) ([]*Labels, error) {
	if f.Model == nil {
		out := make([]*Labels, len(gs))
		for i, g := range gs {
			out[i] = labels.Initial(dfg.Analyze(g))
		}
		return out, nil
	}
	sets := make([]*attr.Set, len(gs))
	for i, g := range gs {
		sets[i] = attr.Generate(g)
	}
	return f.Model.PredictBatch(sets)
}

// Map runs the label-aware simulated annealing of Algorithm 1. The error
// is nil except for injected faults (internal/fault) and label version
// skew; a kernel that merely cannot be mapped is a Result with OK=false.
func (f *Framework) Map(g *Graph) (Result, error) {
	lbl, err := f.DeriveLabels(g)
	if err != nil {
		return Result{}, err
	}
	return mapper.Map(f.Arch, g, mapper.AlgLISA, lbl, f.MapOpts)
}

// MapBaseline runs the vanilla simulated-annealing baseline.
func (f *Framework) MapBaseline(g *Graph) (Result, error) {
	return mapper.Map(f.Arch, g, mapper.AlgSA, nil, f.MapOpts)
}

// MapExact runs the ILP (branch-and-bound) baseline.
func (f *Framework) MapExact(g *Graph, opts ilp.Options) Result {
	return ilp.Map(f.Arch, g, opts, 0)
}

// Verify independently checks that a successful Result is a legal mapping.
func (f *Framework) Verify(g *Graph, r *Result) error {
	return mapper.Verify(f.Arch, g, r)
}

// Simulate executes a successful mapping cycle-accurately for the given
// number of pipelined loop iterations, enforcing per-cycle resource
// capacities and comparing the store output stream against a direct
// evaluation of the DFG. It is the strongest correctness check the
// framework offers.
func (f *Framework) Simulate(g *Graph, r *Result, iterations int) (*SimTrace, error) {
	return sim.Run(f.Arch, g, r, iterations)
}

// Utilization reports how a successful mapping uses the accelerator.
func (f *Framework) Utilization(g *Graph, r *Result) (mapper.Utilization, error) {
	return mapper.Utilize(f.Arch, g, r)
}

// ScheduleTable renders the mapping as a time × PE grid.
func (f *Framework) ScheduleTable(g *Graph, r *Result) string {
	return mapper.ScheduleTable(f.Arch, g, r)
}

// Describe renders a successful mapping as human-readable schedule lines.
func Describe(ar Arch, g *Graph, r *Result) string {
	if !r.OK {
		return fmt.Sprintf("%s: no mapping found (tried IIs %v)", g.Name, r.TriedIIs)
	}
	s := fmt.Sprintf("%s: II=%d, %d nodes, routing cost %d, compile time %v\n",
		g.Name, r.II, g.NumNodes(), r.RoutingCost, r.Duration.Round(1000))
	for v := range g.Nodes {
		row, col := ar.Coord(r.PE[v])
		s += fmt.Sprintf("  t=%2d  PE(%d,%d)  %s\n", r.Time[v], row, col, g.Nodes[v].Name)
	}
	return s
}
