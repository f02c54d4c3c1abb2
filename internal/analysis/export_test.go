package analysis

// Test-only exports for the external fuzz test, which renders figures
// through internal/report (a package that imports this one).
var (
	RefAnalyze    = refAnalyze
	BuiltinStages = builtinStages
)
