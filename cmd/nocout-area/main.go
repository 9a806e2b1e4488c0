// Command nocout-area prints the NoC area model's view of the registered
// interconnect organizations: the paper's Figure 8 breakdown, the
// equal-area link widths behind Figure 9, and the extended designs' areas,
// as text or JSON (-json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"nocout"
	"nocout/internal/physic"
	"nocout/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocout-area: ")

	linkBits := flag.Int("linkbits", 128, "link width in bits")
	jsonOut := flag.Bool("json", false, "emit the area model as JSON")
	flag.Parse()

	fig8 := nocout.Figure8()
	red, disp, llc := physic.NOCOutArea(topo.DefaultNOCOutParams(), *linkBits)
	budget := red.Add(disp).Add(llc).Total()

	type designArea struct {
		Design string           `json:"design"`
		Bits   int              `json:"bits"`
		Area   physic.Breakdown `json:"area"`
	}
	var equal []designArea
	for _, d := range []nocout.Design{nocout.Mesh, nocout.FBfly} {
		w, a := nocout.SolveWidthForArea(d, budget)
		equal = append(equal, designArea{Design: d.String(), Bits: w, Area: a})
	}

	// Every registered organization's area at the flag's link width; the
	// Ideal fabric reports its explicit zero-area wire-only model.
	var all []designArea
	for _, d := range nocout.Designs() {
		cfg := nocout.DefaultConfig(d)
		cfg.LinkBits = *linkBits
		all = append(all, designArea{Design: d.String(), Bits: *linkBits, Area: nocout.Area(cfg)})
	}

	if *jsonOut {
		doc := struct {
			Figure8    nocout.Figure8Result `json:"figure8"`
			BudgetMM2  float64              `json:"budget_mm2"`
			EqualArea  []designArea         `json:"equal_area_links"`
			Reduction  physic.Breakdown     `json:"nocout_reduction"`
			Dispersion physic.Breakdown     `json:"nocout_dispersion"`
			LLC        physic.Breakdown     `json:"nocout_llc"`
			AllDesigns []designArea         `json:"all_designs"`
		}{Figure8: fig8, BudgetMM2: budget, EqualArea: equal,
			Reduction: red, Dispersion: disp, LLC: llc, AllDesigns: all}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println(fig8.Table())

	fmt.Printf("Equal-area link widths at NOC-Out's %.2f mm² budget:\n", budget)
	for _, e := range equal {
		fmt.Printf("  %-20s %3d bits  (%v)\n", e.Design, e.Bits, e.Area)
	}

	fmt.Println("\nNOC-Out composition (§6.2):")
	fmt.Printf("  reduction trees:  %5.2f mm² (%2.0f%%)\n", red.Total(), red.Total()/budget*100)
	fmt.Printf("  dispersion trees: %5.2f mm² (%2.0f%%)\n", disp.Total(), disp.Total()/budget*100)
	fmt.Printf("  LLC butterfly:    %5.2f mm² (%2.0f%%)\n", llc.Total(), llc.Total()/budget*100)

	fmt.Printf("\nAll registered designs at %d-bit links:\n", *linkBits)
	for _, e := range all {
		fmt.Printf("  %-20s %v\n", e.Design, e.Area)
	}
}
