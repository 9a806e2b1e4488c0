// Command compare reads two benchmark ledgers — a base and a new set of
// runs — and prints, for every workload and end-to-end metric, each
// side's median and quartiles with a verdict: improved, unchanged,
// regressed or unresolved (see ledger.Compare for the rule). It exits 1
// when any metric regressed or the new ledger failed a larger share of
// its operations than the base.
//
//	go run ./compare results/base.json results/new.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"nocout/bench/ledger"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare base.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	base, err := ledger.Read(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	cur, err := ledger.Read(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if base.Host != cur.Host {
		fmt.Printf("note: hosts differ\n  base: %+v\n  new:  %+v\n", base.Host, cur.Host)
	}
	if !report(os.Stdout, base, cur) {
		os.Exit(1)
	}
}

// report prints the comparison table and reports whether the new ledger
// passes: no regression and no larger failure share.
func report(out io.Writer, base, cur *ledger.Ledger) bool {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tworse by\tbound\tverdict")
	ok := true
	for _, wl := range base.Workloads() {
		for _, m := range ledger.EndToEnd {
			b, n := base.Values(wl, m.Name), cur.Values(wl, m.Name)
			if len(b) == 0 && len(n) == 0 {
				continue
			}
			c := ledger.Compare(m, b, n)
			if c.Verdict == ledger.Regressed {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, summary(b), summary(n), 100*c.Worse, 100*m.Bound, c.Verdict)
		}
	}
	tw.Flush()
	if !ok {
		fmt.Fprintln(out, "FAIL: at least one metric regressed")
	}
	bf, nf := base.FailureShare(), cur.FailureShare()
	fmt.Fprintf(out, "failed operations: base %.4f%%, new %.4f%%\n", 100*bf, 100*nf)
	if nf > bf {
		fmt.Fprintln(out, "FAIL: the new runs failed a larger share of operations")
		ok = false
	}
	return ok
}

func summary(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	q1, q3 := ledger.Quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", ledger.Median(vs), q1, q3, len(vs))
}
