// Peterson: verify Peterson's mutual-exclusion algorithm under SC, TSO and
// PSO, demonstrate that weak memory breaks it, and — for a broken model —
// extract a concrete violating interleaving from the SMT model by reading
// the interference edges (rf/ws) back into the event order graph and
// linearising it (a topological order of a valid EOG is an interleaving,
// §3.3 of the paper).
package main

import (
	"fmt"
	"log"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/encode"
	"zpre/internal/memmodel"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
	"zpre/internal/witness"
)

func main() {
	var plain, fenced *cprog.Program
	for _, b := range svcomp.Lit() {
		switch b.Name {
		case "peterson":
			plain = b.Program
		case "peterson_fenced":
			fenced = b.Program
		}
	}
	if plain == nil || fenced == nil {
		log.Fatal("peterson benchmarks missing from corpus")
	}

	fmt.Println("Peterson's algorithm (cs == 2 asserts mutual exclusion held):")
	for _, tc := range []struct {
		name string
		prog *cprog.Program
	}{{"peterson", plain}, {"peterson+fences", fenced}} {
		for _, mm := range memmodel.All() {
			vc, status := solve(tc.prog, mm)
			verdict := "SAFE  (mutual exclusion holds)"
			if status == sat.Sat {
				verdict = "UNSAFE (both threads in the critical section)"
			}
			fmt.Printf("  %-16s %-4s %s\n", tc.name, mm, verdict)
			if status == sat.Sat && mm == memmodel.TSO && tc.name == "peterson" {
				printWitness(vc)
			}
		}
	}
}

func solve(p *cprog.Program, mm memmodel.Model) (*encode.VC, sat.Status) {
	res, vc, err := pipeline.Run(p, pipeline.Options{Model: mm, Strategy: core.ZPRE, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	return vc, res.Status
}

// printWitness linearises the satisfying execution: program order plus the
// model's interference edges form an acyclic EOG whose topological order is
// a concrete interleaving.
func printWitness(vc *encode.VC) {
	steps, err := witness.Extract(vc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("    witness interleaving (thread, access, value):")
	fmt.Print(witness.Format(steps, "      "))
}
