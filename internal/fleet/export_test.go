package fleet

// The result batch's wire shapes, for the external wire-contract tests.
type (
	ResultBatch = resultBatch
	ResultEntry = resultEntry
)
