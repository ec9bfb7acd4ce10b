// The benchmark is a module of its own, so the repository's
// `go build ./...` and `go test ./...` do not reach into it, and it is built
// by its own command (run.sh). Its import path lies inside pargeo's, which
// is what lets it import pargeo/internal/...; the code comes from the
// checkout it sits in.
module pargeo/benchmark

go 1.24

require pargeo v0.0.0

replace pargeo => ../
