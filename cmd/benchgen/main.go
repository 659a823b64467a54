// Command benchgen materialises the synthetic SV-COMP-style corpus to disk:
// one .cp program file per benchmark, organised by subcategory, plus an
// index file with the known ground truths. Optionally it also emits the
// SMT-LIB files for each (model, bound) combination, mirroring the paper's
// smt_sc/, smt_tso/, smt_pso/ folders.
//
// Usage:
//
//	benchgen -out benchmarks/ [-smt] [-models sc,tso,pso] [-bounds 1,2,3]
//	         [-width 8] [-sub wmm,pthread]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"zpre/internal/cprog"
	"zpre/internal/memmodel"
	"zpre/internal/pipeline"
	"zpre/internal/smtlib"
	"zpre/internal/svcomp"
)

func main() {
	var (
		outDir     = flag.String("out", "benchmarks", "output directory")
		emitSMT    = flag.Bool("smt", false, "also emit SMT-LIB files per model and bound")
		modelsFlag = flag.String("models", "sc,tso,pso", "models for -smt")
		boundsFlag = flag.String("bounds", "1,2,3", "bounds for -smt")
		width      = flag.Int("width", 8, "bit width for -smt")
		subFlag    = flag.String("sub", "", "restrict to comma-separated subcategories")
	)
	flag.Parse()

	benches := svcomp.All()
	if *subFlag != "" {
		want := map[string]bool{}
		for _, s := range strings.Split(*subFlag, ",") {
			want[strings.TrimSpace(s)] = true
		}
		var filtered []svcomp.Benchmark
		for _, b := range benches {
			if want[b.Subcategory] {
				filtered = append(filtered, b)
			}
		}
		benches = filtered
	}

	var index strings.Builder
	index.WriteString("# benchmark\tsubcategory\tmin_bound\texpected(sc,tso,pso)\n")
	for _, b := range benches {
		dir := filepath.Join(*outDir, b.Subcategory)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("%v", err)
		}
		path := filepath.Join(dir, b.Name+".cp")
		if err := os.WriteFile(path, []byte(cprog.Format(b.Program)), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(&index, "%s\t%s\t%d\t%s,%s,%s\n",
			b.Name, b.Subcategory, b.MinBound,
			expText(b, memmodel.SC), expText(b, memmodel.TSO), expText(b, memmodel.PSO))
	}
	if err := os.WriteFile(filepath.Join(*outDir, "INDEX.tsv"), []byte(index.String()), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %d programs to %s\n", len(benches), *outDir)

	if !*emitSMT {
		return
	}
	var models []memmodel.Model
	for _, name := range strings.Split(*modelsFlag, ",") {
		mm, ok := memmodel.Parse(strings.TrimSpace(name))
		if !ok {
			fatalf("unknown model %q", name)
		}
		models = append(models, mm)
	}
	var bounds []int
	for _, s := range strings.Split(*boundsFlag, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatalf("bad bound %q", s)
		}
		bounds = append(bounds, k)
	}
	files := 0
	for _, mm := range models {
		dir := filepath.Join(*outDir, "smt_"+mm.String())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("%v", err)
		}
		for _, b := range benches {
			bs := bounds
			if !b.Program.HasLoops() {
				bs = bounds[:1] // identical instances across bounds: dedup
			}
			for _, k := range bs {
				vc, err := pipeline.Encode(b.Program, pipeline.Options{Model: mm, Width: *width, Unroll: k})
				if err != nil {
					fatalf("%s: %v", b.Name, err)
				}
				name := fmt.Sprintf("%s__%s__k%d.smt2", b.Subcategory, b.Name, k)
				if err := os.WriteFile(filepath.Join(dir, name), []byte(smtlib.Write(vc)), 0o644); err != nil {
					fatalf("%v", err)
				}
				files++
			}
		}
	}
	fmt.Printf("wrote %d SMT-LIB files\n", files)
}

func expText(b svcomp.Benchmark, mm memmodel.Model) string {
	switch b.Expected[mm] {
	case svcomp.ExpectSafe:
		return "true"
	case svcomp.ExpectUnsafe:
		return "false"
	}
	return "unknown"
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchgen: "+format+"\n", args...)
	os.Exit(1)
}
