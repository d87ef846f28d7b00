package topology_test

import (
	"os"
	"testing"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// The canonical-hash literals below were recorded from the byte-walking
// facet order (facets sorted by their "\x1f"-joined key strings) before
// writeCanonical switched to ordering facets by key rank. They pin the
// canonical bytes themselves: the differential suites compare two
// encodings made by the same writeCanonical, so a changed facet order
// would pass them and still move every content address in every cache.

// canonicalGoldenSDS is CanonicalHash of SDS^b(sⁿ) for n ≤ 3, b ≤ 3.
var canonicalGoldenSDS = []struct {
	n, b int
	hash string
}{
	{0, 0, "6cfa04327bb91a99f41179134b5f2ab9be7a2bc69f6a1c00aeb6de41cce3ec0d"},
	{0, 1, "bb73ebfc49da803a128cd91a3ca90a5d43f679a6ca92b7e523ac53c041b22ab9"},
	{0, 2, "5c0a869f516481257d4aadd38405eb52e24a71741761dc4150ded021779e6e93"},
	{0, 3, "6cb7c69ced49248c48143f9a2fe5313fcc26bbefe86e142ff45fbcda85c76c9f"},
	{1, 0, "0248b5d973ba560d1a9214e89dd9719468cc7f49f6a6e4e03b7ee15a567be6a3"},
	{1, 1, "2785d8b6e4cadc37d2169f580c75143b31ddf4a82e7effae879a6392beca4a85"},
	{1, 2, "dd1184de5b6c4dbc1c75dff3db2ba4beb6223b7f35ca2d9fd9acb43841bb17e2"},
	{1, 3, "e221ae320323bbfe1ebff886bcc3a903d1e43b150bb21c5e684a9abb81103e7a"},
	{2, 0, "dae286abec8ce161fb1338c74cbe16778751d51ccee2f7655fbac31d08de9388"},
	{2, 1, "2feda1b3cce8051e6a69d03d4ea010b232e53789f365debe36c9ad3bba20706f"},
	{2, 2, "a3ae9fd669b175ce3119678e7a68cd99fc96be9753f0f1e7b0219a1a1cd7748b"},
	{2, 3, "35dbcdd34ec9448000813d8f2aac245291e1f40f63656fa35404cc70949f29a4"},
	{3, 0, "0802e41bbc5f7f183f448adaf82ba5a0e6b14f508f4e82b82d9bf02a86eae89c"},
	{3, 1, "273612ab14735ed5104218e5e2117a768db494e6a319ec52fd50501323c644a6"},
	{3, 2, "3389ec2684aa3b348c451f6e73aeebc2a7c2ff18f8c79839179ec4ea48a091c5"},
	{3, 3, "885d67f77216914af3ebe0eb03a0201f7250ccc9a6739147009e1323df7e7e27"}, // behind GOLDEN_FULL
}

// TestGoldenCanonicalHashSDS checks every level of the standard simplices'
// subdivision chains against its recorded hash. SDS³(s³) (421,875 facets)
// runs only with GOLDEN_FULL set, as in the CI observability job.
func TestGoldenCanonicalHashSDS(t *testing.T) {
	full := os.Getenv("GOLDEN_FULL") != ""
	for n := 0; n <= 3; n++ {
		c := topology.Simplex(n)
		for _, g := range canonicalGoldenSDS {
			if g.n != n {
				continue
			}
			if n == 3 && g.b == 3 && !full {
				t.Log("skipping SDS³(s³): set GOLDEN_FULL=1 to include it")
				break
			}
			if g.b > 0 {
				c = topology.SDS(c)
			}
			if got := c.CanonicalHash(); got != g.hash {
				t.Errorf("SDS^%d(s%d): CanonicalHash %s, recorded %s", g.b, n, got, g.hash)
			}
		}
	}
}

// TestGoldenCanonicalHashTaskChains pins the input chains of the service's
// heavy query (consensus-4p), of set-consensus-3p-2 and of approximate
// agreement at d = 4, through level 2: explicit multi-facet roots whose
// keys carry '(' and '=' and share long prefixes across facets.
func TestGoldenCanonicalHashTaskChains(t *testing.T) {
	cases := []struct {
		task   *tasks.Task
		hashes [3]string
	}{
		{tasks.Consensus(4), [3]string{
			"5790da3f2a07b1af5c526432eb810d071719e51835c4db9b31cda8f8fe3652b7",
			"4eaee2f074987cf684a35e9e05ccfb679487207f8b2d025d480901ec57b5046d",
			"68eade6cb3855678f93f74ec2afd2455b6d9220f1e33a10b2e165a30d15b079f",
		}},
		{tasks.SetConsensus(3, 2), [3]string{
			"738c67fa4ee17611eebb42f81430de3c1a52a4154341ee99839b66f7b50df87b",
			"55f50af8a478ba3c7aeeac7c6b1cb215e2a0d925998f49b64df9fa8fefef8704",
			"582f42dface8ef98693d2652d80e6781ad4fc27ac154c639e3af368ad2b21226",
		}},
		{tasks.ApproxAgreement(4), [3]string{
			"37b4d72f4ba963e60539b0129e091138a069402097f2c9beab5772a7372683d6",
			"8256af1ec79c347b2b29e7456a8a0cf1d3544868a57b7ba6e79e9f96d569fa21",
			"3327038e2fa9fc3f150824f7cf6b8be7becfd902c289dd7643cd40955c2c2bc0",
		}},
	}
	for _, tc := range cases {
		c := tc.task.Inputs
		for b, want := range tc.hashes {
			if b > 0 {
				c = topology.SDS(c)
			}
			if got := c.CanonicalHash(); got != want {
				t.Errorf("%s SDS^%d(I): CanonicalHash %s, recorded %s", tc.task.Name, b, got, want)
			}
		}
	}
}

// TestGoldenCanonicalHashSDSOfBsd pins SDS(Bsd(s²)): Bsd keys ("B{…}")
// nest inside SDS keys, so tuples differ deep inside shared prefixes.
func TestGoldenCanonicalHashSDSOfBsd(t *testing.T) {
	const want = "e80bbffc2878690f8fd5cda85d3cad60f1f501611cbcb54ce31d2d0d9a9578bc"
	if got := topology.SDS(topology.Bsd(topology.Simplex(2))).CanonicalHash(); got != want {
		t.Errorf("SDS(Bsd(s²)): CanonicalHash %s, recorded %s", got, want)
	}
}
