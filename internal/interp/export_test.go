package interp

import "pads/internal/sema"

// NewAST builds the reference AST walk (astwalk_test.go) for the external
// test package: the oracle the VM is differentially tested against.
func NewAST(desc *sema.Desc) *astWalk { return newAST(desc) }
