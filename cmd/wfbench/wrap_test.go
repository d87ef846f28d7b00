package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"waitfree/internal/cluster"
	"waitfree/internal/faultfs"
)

func TestSpillFSPassesBytesThrough(t *testing.T) {
	tr := newTracer()
	fs := spillFS{inner: faultfs.OS{}, t: tr}
	dir := t.TempDir()
	data := bytes.Repeat([]byte("WFS1\x00\xffspill"), 1000)
	tmp, final := filepath.Join(dir, "a.gob.tmp"), filepath.Join(dir, "a.gob")
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(final)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile through the wrapper: %d bytes, err %v; want the %d bytes written", len(got), err, len(data))
	}
	onDisk, err := os.ReadFile(final)
	if err != nil || !bytes.Equal(onDisk, data) {
		t.Fatalf("file on disk differs from what was written through the wrapper")
	}
	entries, err := fs.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "a.gob" {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	info, err := entries[0].Info()
	if err != nil || info.Size() != int64(len(data)) {
		t.Fatalf("Info through the wrapper: %v, %v", info, err)
	}
	if err := fs.Remove(final); err != nil {
		t.Fatal(err)
	}

	ops := map[string]int{}
	var listing span
	for _, s := range tr.snapshot() {
		ops[s.Attrs.Op]++
		if s.Attrs.Op == "readdir" {
			listing = s
		}
	}
	for _, op := range []string{"mkdir", "write", "rename", "read", "readdir", "remove"} {
		if ops[op] != 1 {
			t.Errorf("%d %s spans, want 1", ops[op], op)
		}
	}
	if listing.Attrs.Entries != 1 || listing.Attrs.InfoNs <= 0 {
		t.Errorf("readdir span: %d entries, %dns of Info; want 1 entry and its Info time", listing.Attrs.Entries, listing.Attrs.InfoNs)
	}
}

func TestPeerTransportPassesBytesThrough(t *testing.T) {
	payload := bytes.Repeat([]byte{0, 1, 2, 0xfe, 0xff}, 50_000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer srv.Close()
	tr := newTracer()
	client := &http.Client{Transport: &peerTransport{inner: http.DefaultTransport, t: tr}}
	req, err := http.NewRequest(http.MethodGet, srv.URL+cluster.ArtifactPath+"solve:x", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HeaderTraceID, "trace-1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("body through the transport: %d bytes, err %v; want the %d bytes sent", len(got), err, len(payload))
	}
	spans := tr.snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "cluster.peer" || s.Attrs.Kind != "artifact" || s.Attrs.Bytes != int64(len(payload)) ||
		s.Attrs.Status != http.StatusOK || s.Trace != "trace-1" {
		t.Fatalf("span = %+v", s)
	}
}
