package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"

	"github.com/lisa-go/lisa/internal/strictjson"
)

// decodeRequest decodes the body of /v1/map, a batch item or /v1/labels. A
// body in the strict shape split takes costs one pass, which leaves inline
// DFGs as slices of the body; any other body is decoded by decodeStrict, so
// every rejection carries its text.
func decodeRequest[T any](body []byte, split func([]byte) (T, bool)) (T, error) {
	if req, ok := split(body); ok {
		return req, nil
	}
	var req T
	err := decodeStrict(body, &req)
	return req, err
}

// decodeStrict decodes body, one JSON value with nothing after it but JSON
// whitespace, into v with unknown fields disallowed. Every rejection but
// "data after the JSON value" is encoding/json's own.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("data after the JSON value")
	}
	return nil
}

// splitMapRequest decodes a /v1/map body or batch item when it is one
// object with at most one each of MapRequest's keys, exactly so spelled,
// and only whitespace after it: kernel, arch and engine plain strings
// (printable ASCII, no escapes), dfg a JSON value of any kind,
// syntax-checked and handed on as its raw bytes, seed, unroll, maxMoves,
// restarts and deadlineMs decimal integers that fit their fields, and stats
// true or false. ok is false for anything else. What it accepts,
// decodeStrict decodes to the same MapRequest (FuzzMapRequestSplit).
//
//lisa:hotpath every /v1/map request and batch item decodes here before the L1 lookup; a hit must not pay for reflection
func splitMapRequest(body []byte) (req MapRequest, ok bool) {
	s := strictjson.New(string(body))
	var seen [10]bool // MapRequest's fields, in order
	for first := true; ; first = false {
		key, done, valid := s.Key(first)
		if !valid {
			return req, false
		}
		if done {
			break
		}
		var n int64
		switch {
		case key == "kernel" && !seen[0]:
			seen[0] = true
			req.Kernel, valid = s.Plain()
		case key == "dfg" && !seen[1]:
			seen[1] = true
			req.DFG, valid = rawValue(s, body)
		case key == "arch" && !seen[2]:
			seen[2] = true
			req.Arch, valid = s.Plain()
		case key == "engine" && !seen[3]:
			seen[3] = true
			req.Engine, valid = s.Plain()
		case key == "seed" && !seen[4]:
			seen[4] = true
			var seed int64
			seed, valid = s.Int(64)
			req.Seed = &seed // set even to 0: an absent seed means 1
		case key == "unroll" && !seen[5]:
			seen[5] = true
			n, valid = s.Int(strconv.IntSize)
			req.Unroll = int(n)
		case key == "maxMoves" && !seen[6]:
			seen[6] = true
			n, valid = s.Int(strconv.IntSize)
			req.MaxMoves = int(n)
		case key == "restarts" && !seen[7]:
			seen[7] = true
			n, valid = s.Int(strconv.IntSize)
			req.Restarts = int(n)
		case key == "deadlineMs" && !seen[8]:
			seen[8] = true
			req.DeadlineMs, valid = s.Int(64)
		case key == "stats" && !seen[9]:
			seen[9] = true
			req.Stats, valid = s.Bool()
		default:
			valid = false
		}
		if !valid {
			return req, false
		}
	}
	return req, s.End()
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
		v, ok := rawValue(s, body)
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
}

// rawValue consumes one JSON value and returns its bytes in body, the
// document s scans, capped so an append to them cannot write into body.
func rawValue(s *strictjson.Scanner, body []byte) (json.RawMessage, bool) {
	start, end, ok := s.Value()
	if !ok {
		return nil, false
	}
	return body[start:end:end], true
}
