// The benchmark is a module of its own so the instrument builds from
// this directory alone and stays out of the server module's package
// list. The path keeps the pimds/ prefix, which is what lets it import
// pimds/internal/... (Go's internal rule is checked on import paths).
module pimds/bench

go 1.22

require pimds v0.0.0

replace pimds => ../
