package trace

// The differential tests in package trace_test record real workloads,
// which this package cannot import; they reach the oracles through these.
var (
	ReadTextOracle     = readTextOracle
	BuildProfileOracle = buildProfileOracle
)
