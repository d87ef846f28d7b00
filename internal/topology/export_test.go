package topology

// The oracles below are exposed to the external test package.
var (
	CmpFacetOrder      = cmpFacetOrder
	FVectorOracle      = fvectorOracle
	RestrictSDSRebuild = restrictSDSRebuild
)
