package solver

// SolveExhaustive exposes the exhaustive oracle to the external test package.
var SolveExhaustive = solveExhaustive

// SolveExhaustiveWithin is the oracle under a caller-chosen node budget.
var SolveExhaustiveWithin = solveExhaustiveWithin

// Certify exposes SolveUpToCtx's certificate step.
var Certify = certify

// Obstruct exposes the Sperner certificate.
var Obstruct = obstruct

// PathObstruct exposes the path certificate, which Certify tries only
// under a model that drops an ordered partition.
var PathObstruct = pathObstruct

// KeepsAllPartitions exposes the certificate's model gate.
var KeepsAllPartitions = keepsAllPartitions

// SearchUpTo exposes the certificate-free chain walk, for tests whose
// subject is the search itself.
var SearchUpTo = searchChain

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled
