package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// recordMain regenerates reference.json: one untraced pass of every
// workload at each of the given seeds, checked for well-formed outputs,
// with the bands derived from the spread across seeds.
func recordMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.String("seeds", "1-24", "seed range lo-hi")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lo, hi, ok := strings.Cut(*seeds, "-")
	a, errA := strconv.ParseInt(lo, 10, 64)
	b, errB := strconv.ParseInt(hi, 10, 64)
	if !ok || errA != nil || errB != nil || b < a {
		fmt.Fprintln(stderr, "perfbench record: --seeds must be lo-hi")
		return 2
	}
	tensor.SetWorkers(runtime.NumCPU())
	e := &env{tmp: buildDir + "/tmp", workers: min(2, runtime.NumCPU())}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench record:", err)
		return 1
	}
	ref := reference{
		Note:      fmt.Sprintf("recorded by `perfbench record --seeds %s`; see check.go for how the bands are used", *seeds),
		Workloads: map[string]map[string]cellRef{},
	}
	for _, name := range workloadNames {
		vals := map[string][]cellValues{}
		for s := a; s <= b; s++ {
			w, err := newWorkload(name, s)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench record:", err)
				return 1
			}
			p, err := w.pass(e, nil, nil)
			if err != nil || p.failed > 0 {
				fmt.Fprintf(stderr, "perfbench record: %s seed %d: failed (%v)\n", name, s, err)
				return 1
			}
			for i, o := range p.outcomes {
				vals[cellName(w.cells[i])] = append(vals[cellName(w.cells[i])], valuesOf(o))
			}
			fmt.Fprintf(stderr, "%s seed %d: %.2fs\n", name, s, p.wall)
		}
		ref.Workloads[name] = map[string]cellRef{}
		for cell, vs := range vals {
			ref.Workloads[name][cell] = buildRef(vs)
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err == nil {
		err = os.WriteFile("perfbench/reference.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench record:", err)
		return 1
	}
	return 0
}
