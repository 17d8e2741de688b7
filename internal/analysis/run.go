package analysis

import "fmt"

// Run type-checks each directory's package and applies every analyzer,
// returning the diagnostics in stable order.
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

// RunPackage applies the analyzers to one loaded package. A malformed
// //pimvet: directive is a finding of its own: a typo in a mark would
// otherwise silently check nothing.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TypesInfo: pkg.Info,
			diags:     &out,
		}
		if pkg.loader != nil {
			pass.Lookup = pkg.loader.PackageFor
		}
		a.Run(pass)
	}
	for _, f := range pkg.Files {
		for _, d := range ParseDirectives(pkg.Fset, f) {
			if d.Kind == "" {
				out = append(out, Diagnostic{
					Analyzer: "pimvet",
					Pos:      d.Pos,
					Message:  fmt.Sprintf("unknown //pimvet: directive %q", directivePrefix+d.Arg),
				})
			}
		}
	}
	return out
}
