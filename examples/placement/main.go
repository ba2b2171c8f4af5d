// Preemption-point placement study: the blocking a task imposes on
// higher-priority work is bounded by its longest non-preemptive region,
// so where the preemption points sit is a schedulability lever. This
// example sweeps an NPR-length budget over a workload (splitting longer
// nodes at preemption points) and reports how the verdict, the blocking
// terms, and the preemption-point count move — the trade-off the paper
// lists as future work.
package main

import (
	"fmt"
	"log"

	lpdag "repro"
)

func main() {
	// A tight high-priority control task over two batch tasks with long
	// non-preemptive kernels.
	var hb lpdag.GraphBuilder
	h1 := hb.AddNamedNode("poll", 3)
	h2 := hb.AddNamedNode("act", 4)
	hb.AddEdge(h1, h2)
	hi := &lpdag.Task{Name: "control", G: hb.MustBuild(), Deadline: 30, Period: 30}

	var b1 lpdag.GraphBuilder
	s := b1.AddNamedNode("split", 4)
	j := b1.AddNamedNode("join", 4)
	for i := 0; i < 3; i++ {
		v := b1.AddNamedNode(fmt.Sprintf("kern%d", i), 40)
		b1.AddEdge(s, v)
		b1.AddEdge(v, j)
	}
	batch := &lpdag.Task{Name: "batch", G: b1.MustBuild(), Deadline: 400, Period: 400}

	var b2 lpdag.GraphBuilder
	prev := -1
	for i, c := range []int64{35, 50, 25} {
		v := b2.AddNamedNode(fmt.Sprintf("stage%d", i), c)
		if prev >= 0 {
			b2.AddEdge(prev, v)
		}
		prev = v
	}
	pipeline := &lpdag.Task{Name: "pipeline", G: b2.MustBuild(), Deadline: 500, Period: 500}

	ts, err := lpdag.NewTaskSet(hi, batch, pipeline)
	if err != nil {
		log.Fatal(err)
	}

	const m = 2
	budgets := []int64{5, 10, 20, 40, 60}
	points, err := lpdag.ExplorePlacement(ts, m, budgets, lpdag.LPILP)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("placement sweep on m=%d (LP-ILP); budget = max NPR length\n\n", m)
	fmt.Printf("%8s %12s %10s %12s %12s\n", "budget", "total NPRs", "max Δᵐ", "worst slack", "verdict")
	for _, p := range points {
		verdict := "SCHEDULABLE"
		if !p.Schedulable {
			verdict = "miss"
		}
		fmt.Printf("%8d %12d %10d %12.1f %12s\n",
			p.MaxNPR, p.TotalNodes, p.MaxDeltaM, float64(p.WorstSlackM)/m, verdict)
	}

	fmt.Println("\nfiner NPRs (small budget) cap the blocking on the control task at")
	fmt.Println("the budget, at the cost of more preemption points (more NPRs);")
	fmt.Println("coarse NPRs let a single 40+-unit kernel block the 30-unit deadline.")

	// The dual transform: coarsening the pipeline back down to few NPRs.
	coarse := lpdag.CoarsenChains(pipeline.G, 110)
	fmt.Printf("\ncoarsening %q with budget 110: %d NPRs -> %d NPRs (vol preserved: %d)\n",
		pipeline.Name, pipeline.G.N(), coarse.N(), coarse.Volume())
}
