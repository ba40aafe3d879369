package core

// The registry oracle test lives in package core_test because it imports
// internal/scenario, which imports this package through the engine. These
// aliases hand it the oracle comparisons of pasc_oracle_test.go.
var (
	CheckLineOracle        = checkLineOracle
	CheckMergeOracle       = checkMergeOracle
	CheckPropagateOracleAt = checkPropagateOracleAt
	LineOracleSources      = lineOracleSources
)
