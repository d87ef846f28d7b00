package topology

// CmpFacetOrder exposes the facet-order oracle to the external test package.
var CmpFacetOrder = cmpFacetOrder
