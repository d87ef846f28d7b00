package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"waitfree/internal/sched"
)

// goldenAdversaryDigests pins the public bytes of the renaming, emulated
// renaming and full-information replays. Each entry is the SHA-256 of the
// concatenated EncodeJSON bodies of RunAdversary over seeds 1–8 and the
// crash vectors {none, P1 at step 2} at three processes, in that order.
// The shot-memory runtimes behind these algos may change; their bytes may
// not.
var goldenAdversaryDigests = map[string]string{
	"fullinfo/block-0":                     "c65fae95738fcaaea8421e795c85d66b13ea91e1b464a6b52d939ced80d200ba",
	"fullinfo/block-1":                     "917552ebf7b22bc0079eb7ff876dfd5e116cbb00fc1a6d3b37bdd35ec2012858",
	"fullinfo/block-2":                     "437f6cece1116565122b131f36ffb2d6cbd3fd09d82c605de1c26ddb0615c515",
	"fullinfo/laggard":                     "bae4e7befe37a365cd85ead648376747a7cd823b97c614f841f285417c055436",
	"fullinfo/priority-inversion":          "be95b47577aebcfadafdd8fe6b57051a2524e5bb168658ac519ee84dc7089eb8",
	"fullinfo/random":                      "61523d97345c12c38fe41e9c49936298c4a814283c7fb67d5de4aa66ac70606a",
	"fullinfo/round-robin":                 "55e566f20ccc488122d302aaa370eafb12e1247672df69a3ceb471c924756db0",
	"fullinfo/solo-0":                      "d3d901920545ee796a27fa3bbea057f375bd3702d1e0bd6ac4119732e4aaf8c0",
	"fullinfo/solo-1":                      "34ab86faea64cdad3e173580289b728ff5eef69edc9b56057dd0c6b421670163",
	"fullinfo/solo-2":                      "128f3083b6a04986db29576f72655a8ff35a581cc05d7d47be5f752c05e3e0c1",
	"renaming-emulated/block-0":            "7a6e95b36556040da13d5da78eb75121c493e92403ffba64510a76d093c11dd4",
	"renaming-emulated/block-1":            "a1c541e8a9820290fa58cff1eaf22e483d3e9a73688e75ce4a36ce9236691543",
	"renaming-emulated/block-2":            "380dae5af80665f4cc5b8393f0e73dbb60fc2510400fc431cbf0d9c83a58b59c",
	"renaming-emulated/laggard":            "4fc9d844706f637bc578be7a605c638ce21e1701d00ae4e359b90feed558a8d9",
	"renaming-emulated/priority-inversion": "bb7cfc40b0769063eabb6b06e5b5bf1de7447c88f70951852733fdfcbfbb103b",
	"renaming-emulated/random":             "94a56988935c8a6d0757e8ec38dbdb17548392ebd02c558f4e00ef469be2c117",
	"renaming-emulated/round-robin":        "0ba268f95aab6b2da684a0bbad4b7d3a1c05f6a08600fddbcba5319692312a70",
	"renaming-emulated/solo-0":             "1cec8cd1746ff916a1ddf597e4d99cbd74fe0b432e71eb13a24a06997e39730f",
	"renaming-emulated/solo-1":             "bd6682e3d40b52e6b6bc088d33d5f99a00617c5c18df26e3443453ac4b304506",
	"renaming-emulated/solo-2":             "8ed5437be809e6c439fc5793da6bad979b83f33783d224fdae30dd42864e5292",
	"renaming/block-0":                     "6a4b19f790a7f2e28d43b4c4079bd3cb0d5fadd50be3dfd2deb1c86de5910c4e",
	"renaming/block-1":                     "5d57865b8ccee8ca5869c7793b2b63b756e132a37809786fae8241c130690fa1",
	"renaming/block-2":                     "bd666818819610bb5f75383408d0c18965df5bb1612ce9d1f95d3e4947f89b88",
	"renaming/laggard":                     "6c6142439cf62626bb113fcc83aff67f937c1225d7b05c6e808769783efcfb82",
	"renaming/priority-inversion":          "54fc58e3fe7653abe6d7c91ab4dd107aaaa4f26d1af9f11f41a294999e5ac2bc",
	"renaming/random":                      "26271c65f44667b2652789eba355f1ebcea2d23e92da4cc0b246ed3fa68f1c79",
	"renaming/round-robin":                 "3436100e4a799a2c2702fe87f0afe23451cffb954c5065751ff94f20b1a5984a",
	"renaming/solo-0":                      "e1279d774cc5c09145457580ac161f11c649192933e1c8751d1a8daaf85e04aa",
	"renaming/solo-1":                      "6854b50e2a06a7ad3ccaf75b25320fc88bc49d8bf8df916bc10926cef392f4fc",
	"renaming/solo-2":                      "d856815e4effc117593a0656a22d5d65c3d2debb7f43c30178d8ff719344f1f6",
}

// goldenAdversaries expands sched.AdversaryNames() at n processes: every
// solo-<p> and block-<k> the registry accepts.
func goldenAdversaries(n int) []string {
	var out []string
	for _, name := range sched.AdversaryNames() {
		switch {
		case strings.HasSuffix(name, "<p>"), strings.HasSuffix(name, "<k>"):
			prefix := name[:strings.IndexByte(name, '<')]
			for i := 0; i < n; i++ {
				out = append(out, fmt.Sprintf("%s%d", prefix, i))
			}
		default:
			out = append(out, name)
		}
	}
	return out
}

func TestAdversaryReplayBytesGolden(t *testing.T) {
	const n = 3
	crashes := [][]int{nil, {-1, 2, -1}}
	got := map[string]string{}
	for _, algo := range []string{"renaming", "renaming-emulated", "fullinfo"} {
		for _, adv := range goldenAdversaries(n) {
			h := sha256.New()
			for seed := int64(1); seed <= 8; seed++ {
				for _, crash := range crashes {
					req := AdversaryRequest{Algo: algo, Adversary: adv, Seed: seed, Procs: n, Crash: crash}
					resp, err := RunAdversary(req)
					if err != nil {
						t.Fatalf("%s: %v", req.Key(), err)
					}
					body, err := EncodeJSON(resp)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(body)
				}
			}
			got[algo+"/"+adv] = hex.EncodeToString(h.Sum(nil))
		}
	}
	if len(got) != len(goldenAdversaryDigests) {
		t.Fatalf("%d digests, want %d", len(got), len(goldenAdversaryDigests))
	}
	for k, want := range goldenAdversaryDigests {
		if got[k] != want {
			t.Errorf("%s: body digest %s, want %s", k, got[k], want)
		}
	}
}
