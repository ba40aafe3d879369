package core

import "spforest/amoebot"

// The registry and label oracle tests live in package core_test because
// they import internal/scenario, which imports this package through the
// engine. These aliases hand them the oracle comparisons of
// pasc_oracle_test.go and the forest path's label hook.
var (
	CheckLineOracle        = checkLineOracle
	CheckMergeOracle       = checkMergeOracle
	CheckPropagateOracleAt = checkPropagateOracleAt
	LineOracleSources      = lineOracleSources
)

// SetLabelHook sets the hook that sees every forest step's forest and
// labels (nil removes it).
func SetLabelHook(h func(step string, f *amoebot.Forest, label []int32)) { labelHook = h }
