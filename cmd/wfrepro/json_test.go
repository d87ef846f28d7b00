package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"waitfree/internal/engine"
	"waitfree/internal/serve"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	runErr := fn()
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput: %s", runErr, out)
	}
	return out
}

// TestJSONMatchesService is the shared-encoder contract: `wfrepro <cmd>
// -json` and the corresponding /v1/* endpoint emit byte-identical responses
// for the same query.
func TestJSONMatchesService(t *testing.T) {
	srv := serve.NewServer(engine.New(engine.Options{}), serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		args []string
		path string
	}{
		{"solve-consensus",
			[]string{"solve", "-json", "-family", "consensus", "-procs", "2", "-maxb", "1"},
			"/v1/solve?family=consensus&procs=2&maxb=1"},
		{"solve-approx",
			[]string{"solve", "-json", "-family", "approx-agreement", "-d", "2", "-maxb", "2"},
			"/v1/solve?family=approx-agreement&d=2&maxb=2"},
		{"converge",
			[]string{"converge", "-json", "-n", "1", "-target", "1", "-maxk", "2"},
			"/v1/converge?n=1&target=1&maxk=2"},
		{"converge-no-map",
			[]string{"converge", "-json", "-n", "2", "-target", "2", "-maxk", "1"},
			"/v1/converge?n=2&target=2&maxk=1"},
		{"adversary",
			[]string{"adversary", "-json", "-algo", "commitadopt", "-adv", "random", "-seed", "42", "-n", "3", "-crash", "2,-1,-1"},
			"/v1/adversary?algo=commitadopt&adversary=random&seed=42&procs=3&crash=2,-1,-1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli := captureStdout(t, func() error { return run(tc.args) })

			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("service: %d %s", resp.StatusCode, body)
			}
			if string(cli) != string(body) {
				t.Errorf("CLI and service bytes differ:\ncli:     %s\nservice: %s", cli, body)
			}
		})
	}
}
