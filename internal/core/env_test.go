package core

import (
	"spforest/internal/dense"
	"spforest/internal/par"
)

// testEnv is the environment the package tests run the algorithms under:
// GOMAXPROCS workers over the shared arena and no portal memo, so running
// the suite at -cpu 1 and -cpu 4 exercises both the serial path and the
// parallel fan-outs.
func testEnv() *Env { return NewEnv(par.New(0, dense.Shared), nil) }
