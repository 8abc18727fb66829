package service

import (
	"encoding/json"

	"github.com/lisa-go/lisa/internal/strictjson"
)

// decodeLabelsRequest decodes a /v1/labels body. A body in the strict shape
// splitLabelsRequest takes costs one pass that leaves the inline DFGs
// undecoded, for the per-DFG tasks to decode in parallel; any other body is
// decoded by decodeStrict, so every rejection carries its text.
func decodeLabelsRequest(body []byte) (LabelsRequest, error) {
	if req, ok := splitLabelsRequest(body); ok {
		return req, nil
	}
	var req LabelsRequest
	err := decodeStrict(body, &req)
	return req, err
}

// splitLabelsRequest decodes body when it is one object with at most one
// each of the keys "arch", "kernels" and "dfgs", exactly so spelled, and
// only whitespace after it: arch a plain string (printable ASCII, no
// escapes), kernels an array of plain strings, dfgs an array of JSON values
// of any kind, each syntax-checked and handed on as its raw bytes. ok is
// false for anything else. What it accepts, decodeStrict decodes to the
// same LabelsRequest (FuzzLabelsRequest).
func splitLabelsRequest(body []byte) (req LabelsRequest, ok bool) {
	s := strictjson.New(string(body))
	var seen [3]bool // arch, kernels, dfgs
	for first := true; ; first = false {
		key, done, valid := s.Key(first)
		if !valid {
			return req, false
		}
		if done {
			break
		}
		switch {
		case key == "arch" && !seen[0]:
			seen[0] = true
			req.Arch, valid = s.Plain()
		case key == "kernels" && !seen[1]:
			seen[1] = true
			req.Kernels, valid = plainStrings(s)
		case key == "dfgs" && !seen[2]:
			seen[2] = true
			req.DFGs, valid = rawValues(s, body)
		default:
			valid = false
		}
		if !valid {
			return req, false
		}
	}
	return req, s.End()
}

// plainStrings consumes an array of plain strings.
func plainStrings(s *strictjson.Scanner) ([]string, bool) {
	out := []string{} // encoding/json decodes [] to an empty, non-nil slice
	for first := true; ; first = false {
		done, ok := s.Elem(first)
		if done || !ok {
			return out, ok
		}
		v, ok := s.Plain()
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
}

// rawValues consumes an array of JSON values and returns each one's bytes
// in body, the document s scans.
func rawValues(s *strictjson.Scanner, body []byte) ([]json.RawMessage, bool) {
	out := []json.RawMessage{}
	for first := true; ; first = false {
		done, ok := s.Elem(first)
		if done || !ok {
			return out, ok
		}
		start, end, ok := s.Value()
		if !ok {
			return nil, false
		}
		out = append(out, body[start:end:end])
	}
}
