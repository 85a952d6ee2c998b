// Package fixture seeds malformed //mmqjp: directives for the framework's
// grammar validation.
package fixture

//mmqjp:unknown something
var a int

//mmqjp:unordered
var b int

//mmqjp:pooled
var e int

var _ = a + b + e
