// Package rules binds the analyzers to this repository: which packages are
// on the output path for mapiter, and where nondeterminism is forbidden.
// cmd/mmqjplint and the clean-tree
// test share this configuration so "the linter" means the same thing in CI,
// locally and in the tests.
package rules

import (
	"repro/internal/lint"
	"repro/internal/lint/guarded"
	"repro/internal/lint/mapiter"
	"repro/internal/lint/nodeterm"
	"repro/internal/lint/pooled"
	"repro/internal/lint/shardowned"
)

const module = "repro"

// Default returns the repo's analyzer suite.
func Default() []lint.Analyzer {
	return []lint.Analyzer{
		mapiter.New(mapiter.Config{Enforce: onOutputPath}),
		guarded.New(),
		shardowned.New(),
		nodeterm.New(nodeterm.Config{Enforce: func(pkgPath string) bool {
			return pkgPath == module+"/internal/core"
		}}),
		pooled.New(),
	}
}

// onOutputPath scopes mapiter to the packages whose iteration order can reach
// match output or serialized state: the shared-join core and the whole
// engine facade package (engine.go, publish.go, snapshot.go, stats.go,
// store.go).
func onOutputPath(pkgPath, file string) bool {
	switch pkgPath {
	case module, module + "/internal/core":
		return true
	}
	return false
}
