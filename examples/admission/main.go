// Admission control with a stateful analysis session: the interactive
// what-if workflow the one-shot Analyze API is the wrong shape for.
//
// A mixed workload grows online: before each new task is committed, a
// TryAdmit probe analyzes the hypothetical set without committing
// anything, and the task is admitted only if every deadline still
// holds. Each probe and each committed edit re-analyzes the set from
// scratch on a warm pooled analyzer; the µ tables, the expensive part,
// stay memoized on the task graphs, so only a newly added task's graph
// pays for them.
package main

import (
	"context"
	"fmt"
	"log"

	lpdag "repro"
)

func main() {
	ctx := context.Background()

	// Start from nothing: admission control often does.
	sess, err := lpdag.NewSession(lpdag.Options{Cores: 4, Method: lpdag.LPILP})
	if err != nil {
		log.Fatal(err)
	}

	// A stream of candidate tasks (generated from the paper's mixed
	// population) asks to join at the lowest priority.
	g := lpdag.NewGenerator(7, lpdag.PaperGenParams(lpdag.GroupMixed))
	admitted, rejected := 0, 0
	for i := 0; i < 40; i++ {
		cand := g.TaskSet(0.35).Tasks[0]
		cand.Name = fmt.Sprintf("task-%02d", i)
		rep, err := sess.TryAdmit(ctx, cand, -1)
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Schedulable {
			rejected++
			continue
		}
		if err := sess.AddTask(cand, -1); err != nil {
			log.Fatal(err)
		}
		admitted++
	}
	rep, err := sess.Report(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admitted %d / rejected %d candidates; final U = %.3f, still schedulable: %v\n",
		admitted, rejected, rep.Utilization, rep.Schedulable)

	// What-if queries against the committed set: how much WCET headroom
	// does the highest-priority task have, and would dropping a core
	// still work?
	permille, err := sess.Sensitivity(ctx, 0, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s sustains WCET × %d.%03d\n", rep.Tasks[0].Name, permille/1000, permille%1000)

	if err := sess.SetCores(3); err != nil {
		log.Fatal(err)
	}
	rep3, err := sess.Report(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on 3 cores the set is schedulable: %v\n", rep3.Schedulable)
}
