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

// FuzzParseTagBody drives arbitrary bytes at the /v1/tag body parser. It
// must never panic, and an accepted text is never blank.
func FuzzParseTagBody(f *testing.F) {
	for _, body := range []string{
		``,
		`{"text":"a new album with a soft piano melody"}`,
		`{"text":""}`,
		`{"text":" \t\n"}`,
		`{"text":null}`,
		`{"text":7}`,
		`{"text":"a"`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/v1/tag", bytes.NewReader(body))
		text, err := parseTagBody(r)
		if err != nil {
			if text != "" {
				t.Fatalf("rejected body %q still returned text %q", body, text)
			}
			return
		}
		if strings.TrimSpace(text) == "" {
			t.Fatalf("body %q accepted with blank text %q", body, text)
		}
	})
}

// FuzzParseBatchBody drives arbitrary bytes at the /v1/tag/batch body
// parser. It must never panic; an accepted batch holds
// 1..maxBatchRequestDocs texts, none of them blank.
func FuzzParseBatchBody(f *testing.F) {
	for _, body := range []string{
		``,
		`{"texts":["a new album","a flight to the island"]}`,
		`{"texts":[]}`,
		`{"texts":null}`,
		`{"texts":["a song"," "]}`,
		`{"texts":"a song"}`,
		`{"texts":[`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/v1/tag/batch", bytes.NewReader(body))
		texts, err := parseBatchBody(r)
		if err != nil {
			if texts != nil {
				t.Fatalf("rejected body %q still returned %d texts", body, len(texts))
			}
			return
		}
		if len(texts) < 1 || len(texts) > maxBatchRequestDocs {
			t.Fatalf("accepted %d texts, want 1..%d", len(texts), maxBatchRequestDocs)
		}
		for i, text := range texts {
			if strings.TrimSpace(text) == "" {
				t.Fatalf("text %d accepted blank: %q", i, text)
			}
		}
	})
}
