// Exactcheck: verify the paper's Theorem-1 guarantee *exactly* rather than
// statistically. On a duplex triangle small enough to solve in closed form,
// the continuous-time Markov chain of each routing discipline is enumerated
// and solved to stationarity; the guarantee (controlled alternate routing
// accepts at least as many calls as single-path routing) then holds to
// numerical precision, and the §1 avalanche appears exactly at overload.
package main

import (
	"flag"
	"fmt"
	"log"

	altroute "repro"
	"repro/internal/exact"
	"repro/internal/paths"
)

func main() {
	quick := flag.Bool("quick", false, "solve a reduced rate grid (CI smoke)")
	flag.Parse()

	const capacity = 3
	g := altroute.CompleteGraph(3, capacity)

	// Every ordered pair offers `rate` Erlangs with the direct primary and
	// the one 2-hop alternate.
	table, err := altroute.BuildRouteTable(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	buildModel := func(rate float64, admit exact.Admission) exact.Model {
		var demands []exact.Demand
		for o := altroute.NodeID(0); o < 3; o++ {
			for d := altroute.NodeID(0); d < 3; d++ {
				if o == d {
					continue
				}
				rs := table.Routes(o, d)
				demands = append(demands, exact.Demand{
					Origin: o, Dest: d, Rate: rate,
					Routes: []paths.Path{rs.Primaries[0].Path, rs.Alternates[0]},
				})
			}
		}
		return exact.Model{Graph: g, Demands: demands, Admit: admit}
	}
	primaryOnly := func(r int, _ paths.Path, _ []int) bool { return r == 0 }
	anyRoute := func(int, paths.Path, []int) bool { return true }
	controlled := func(prot int) exact.Admission {
		return func(r int, route paths.Path, occ []int) bool {
			if r == 0 {
				return true
			}
			for _, id := range route.Links {
				if occ[id] > capacity-prot-1 {
					return false
				}
			}
			return true
		}
	}

	fmt.Printf("%-8s %4s %16s %16s %16s\n", "E/pair", "r", "single accept/s", "uncontrolled", "controlled")
	rates := []float64{1, 2.5, 4, 6, 9}
	if *quick {
		rates = []float64{1, 9}
	}
	for _, rate := range rates {
		r := altroute.ProtectionLevel(rate, capacity, 2)
		solve := func(admit exact.Admission) float64 {
			res, err := exact.Solve(buildModel(rate, admit), 0, 0)
			if err != nil {
				log.Fatal(err)
			}
			return res.AcceptanceRate
		}
		single := solve(primaryOnly)
		unc := solve(anyRoute)
		ctrl := solve(controlled(r))
		marker := ""
		if ctrl+1e-9 < single {
			marker = "  << GUARANTEE VIOLATED"
		}
		fmt.Printf("%-8.3g %4d %16.6f %16.6f %16.6f%s\n", rate, r, single, unc, ctrl, marker)
	}
	fmt.Println("\nacceptance rates are exact stationary values (calls per unit time);")
	fmt.Println("note uncontrolled dipping below single-path at overload (the avalanche),")
	fmt.Println("while controlled never does — Theorem 1, verified to numerical precision.")
}
