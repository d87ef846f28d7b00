package solver

// SolveExhaustive exposes the exhaustive oracle to the external test package.
var SolveExhaustive = solveExhaustive
