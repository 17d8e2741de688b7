package analysis

import "fmt"

// Run type-checks each directory's package and applies every analyzer,
// returning the surviving (unsuppressed) diagnostics in stable order.
// A package that fails to parse or type-check aborts the run with an
// error: analyzers on broken trees produce nonsense.
func Run(loader *Loader, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if len(pkg.Errors) > 0 {
			return nil, fmt.Errorf("pimvet: %s: %v", dir, pkg.Errors[0])
		}
		diags = append(diags, RunPackage(pkg, analyzers)...)
	}
	SortDiagnostics(diags)
	return diags, nil
}

// RunPackage applies the analyzers to one loaded package and filters
// the results through the package's //pimvet:allow directives.
// Malformed directives and allows without a justification are findings
// of their own: the point of the allowlist is that every exemption from
// an invariant is justified in-tree.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Path:      pkg.LogicalPath,
			diags:     &raw,
		}
		if pkg.loader != nil {
			pass.Lookup = pkg.loader.PackageFor
		}
		a.Run(pass)
	}

	byFile := make(map[string]*fileDirectives)
	var out []Diagnostic
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		fd := buildFileDirectives(pkg.Fset, f)
		byFile[name] = &fd
		for _, m := range fd.malformed {
			out = append(out, Diagnostic{
				Analyzer: "pimvet",
				Pos:      m.Pos,
				Message:  fmt.Sprintf("malformed //pimvet: directive %q", directivePrefix+m.Arg),
			})
		}
		for _, d := range fd.unjustified {
			out = append(out, Diagnostic{
				Analyzer: "pimvet",
				Pos:      d.Pos,
				Message:  "suppression without justification (write //pimvet:" + d.Kind + " <analyzers>: <reason>)",
			})
		}
	}
	for _, d := range raw {
		fd := byFile[d.Pos.Filename]
		if fd != nil && len(fd.suppressors(d.Analyzer, d.Pos.Line)) > 0 {
			continue
		}
		out = append(out, d)
	}
	return out
}
