package dfg

// Metrics summarizes the structural properties that predict mapping
// difficulty; lisa-dfg prints them and the experiments reference them when
// discussing which kernels are hard for which engine.
type Metrics struct {
	Nodes, Edges int
	MemOps       int
	CriticalPath int
	// Width is the largest ASAP level population — the peak spatial
	// parallelism the DFG offers.
	Width int
	// AvgFanout is edges / non-sink nodes.
	AvgFanout float64
	// MaxFanout is the largest out-degree (the B-node of the paper's
	// motivating example has 4).
	MaxFanout int
	// Density is edges / possible forward pairs — how entangled the DFG is.
	Density float64
	// SameLevelPairs counts the dummy edges label 2 operates on.
	SameLevelPairs int
}

// ComputeMetrics analyzes g.
func ComputeMetrics(g *Graph) Metrics {
	an := Analyze(g)
	m := Metrics{
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		MemOps:       g.MemOpCount(),
		CriticalPath: an.CriticalPath,
	}
	for lvl := 0; lvl <= an.CriticalPath; lvl++ {
		if w := an.NodesAtLevel(lvl); w > m.Width {
			m.Width = w
		}
	}
	nonSink := 0
	for v := range g.Nodes {
		if d := g.OutDegree(v); d > 0 {
			nonSink++
			if d > m.MaxFanout {
				m.MaxFanout = d
			}
		}
	}
	if nonSink > 0 {
		m.AvgFanout = float64(g.NumEdges()) / float64(nonSink)
	}
	if n := g.NumNodes(); n > 1 {
		m.Density = float64(g.NumEdges()) / float64(n*(n-1)/2)
	}
	m.SameLevelPairs = len(an.SameLevelPairs())
	return m
}
