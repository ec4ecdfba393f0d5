// Command qmcompile is the reproduction of the paper's Figure 1 compiler
// step: it takes profiled timing tables (from qmprofile), the deadline
// requirement and the relaxation set, validates the quality-management
// problem, pre-computes the symbolic tables, and emits a controller
// bundle (format v2): the validated application description plus a
// digest of the tables compiled from it. The tables are a pure function
// of that description, so whatever loads the bundle compiles it again
// and checks the digest; the stderr report gives the table entry counts.
// -o writes the bundle atomically: the path holds either its previous
// content or the whole new bundle. Bundles written in format v1 must be
// recompiled.
//
// Usage:
//
//	qmprofile -o tables.json
//	qmcompile -tables tables.json -mb 48 -deadline-ms 50 -rho 1,5,10,25 -o controller.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/profiler"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qmcompile: ")
	tablesPath := flag.String("tables", "", "profiled timing tables JSON (required)")
	numMB := flag.Int("mb", 396, "macroblocks per frame")
	deadlineMS := flag.Int64("deadline-ms", 0, "per-cycle deadline in ms (required)")
	rhoFlag := flag.String("rho", "1,10,20,30,40,50", "comma-separated relaxation steps")
	name := flag.String("name", "encoder", "application name")
	out := flag.String("o", "", "output bundle path (default stdout)")
	flag.Parse()

	if *tablesPath == "" || *deadlineMS <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*tablesPath)
	if err != nil {
		log.Fatal(err)
	}
	var tabs profiler.Tables
	if err := json.Unmarshal(data, &tabs); err != nil {
		log.Fatalf("parse %s: %v", *tablesPath, err)
	}
	sys, err := tabs.System(*numMB, core.Time(*deadlineMS)*core.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	rho, err := parseRho(*rhoFlag)
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := controller.Compile(controller.SpecFromSystem(*name, sys, rho))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Fprintf(os.Stderr, "compiled %q: %d actions × %d levels, rho=%v\n",
		*name, sys.NumActions(), sys.NumLevels(), rho)
	fmt.Fprintf(os.Stderr, "tables: %d + %d integers\n",
		bundle.Tables().NumEntries(), bundle.RelaxTables().NumEntries())

	if *out == "" {
		if _, err := bundle.WriteTo(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	var n int64
	if err := checkpoint.WriteAtomic(*out, func(w io.Writer) error {
		var err error
		n, err = bundle.WriteTo(w)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, n)
}

func parseRho(s string) ([]int, error) {
	var rho []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad rho element %q: %v", part, err)
		}
		rho = append(rho, v)
	}
	if len(rho) == 0 {
		return nil, fmt.Errorf("empty rho")
	}
	return rho, nil
}
