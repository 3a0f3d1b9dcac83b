package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzParsePublishDocs drives arbitrary bytes at the /v1/publish body
// parser. It must never panic. An accepted document set holds
// 1..maxPublishDocs documents, each with non-blank text and at least one
// tag, none of them blank; a nil set with no error (train on the
// configured corpus) is accepted only for a body of JSON whitespace.
func FuzzParsePublishDocs(f *testing.F) {
	for _, body := range []string{
		``,
		`{"docs":[{"text":"a new album","tags":["music"]},{"text":"a flight","tags":["travel","trip"]}]}`,
		`{"docs":[]}`,
		`{"docs":null}`,
		`{"docs":[{"text":"   ","tags":["music"]}]}`,
		`{"docs":[{"text":"a song","tags":[" "]}]}`,
		`{"docs":[{"text":"a song"}]}`,
		`{"docs":[`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/v1/publish", bytes.NewReader(body))
		docs, err := parsePublishDocs(r)
		if err != nil {
			if docs != nil {
				t.Fatalf("rejected body %q still returned %d documents", body, len(docs))
			}
			return
		}
		if docs == nil {
			if strings.Trim(string(body), " \t\r\n") != "" {
				t.Fatalf("non-empty body %q accepted as \"use the configured corpus\"", body)
			}
			return
		}
		if len(docs) < 1 || len(docs) > maxPublishDocs {
			t.Fatalf("accepted %d documents, want 1..%d", len(docs), maxPublishDocs)
		}
		for i, d := range docs {
			if strings.TrimSpace(d.Text) == "" {
				t.Fatalf("document %d accepted with blank text %q", i, d.Text)
			}
			if len(d.Tags) == 0 {
				t.Fatalf("document %d accepted with no tags", i)
			}
			for _, tag := range d.Tags {
				if strings.TrimSpace(tag) == "" {
					t.Fatalf("document %d accepted with blank tag %q", i, tag)
				}
			}
		}
	})
}
