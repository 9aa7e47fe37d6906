//go:build !amd64

package core

// asmGather is nil off amd64: there is no assembly kernel.
var asmGather gatherFunc

// gatherInterior is the interior kernel evolveWindow runs: the portable Go
// gather on every architecture but amd64.
var gatherInterior gatherFunc = gatherGo
