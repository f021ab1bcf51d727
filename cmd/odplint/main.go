// Command odplint runs the platform's custom static-analysis suite
// (internal/lint) over the module and reports every violated invariant.
//
// Usage:
//
//	odplint [-json] [packages]
//
// Package arguments are accepted for command-line compatibility
// ("go run ./cmd/odplint ./...") but the suite always analyzes the whole
// module: the layering and lockgraph passes are only meaningful on the
// full program.
//
// -json emits a machine-readable report: the package count and the
// diagnostics, each with its witness-chain notes (e.g. a lockgraph
// cycle's full acquire chain). Text mode prints one diagnostic per line,
// notes indented beneath it.
//
// Exits 1 when any diagnostic is produced, 2 on loading errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"odp/internal/lint"
)

// jsonDiagnostic is one finding in -json output.
type jsonDiagnostic struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Column  int      `json:"column"`
	Pass    string   `json:"pass"`
	Message string   `json:"message"`
	Notes   []string `json:"notes,omitempty"`
}

// jsonReport is the -json document.
type jsonReport struct {
	Packages    int              `json:"packages"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

func main() {
	asJSON := flag.Bool("json", false, "emit a machine-readable JSON report")
	flag.Parse()

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "odplint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "odplint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.DefaultAnalyzers())

	if *asJSON {
		report := jsonReport{Packages: len(pkgs), Diagnostics: []jsonDiagnostic{}}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Pass: d.Pass, Message: d.Message, Notes: d.Notes,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "odplint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.Render())
		}
	}

	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "odplint: %d invariant violation(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
}
