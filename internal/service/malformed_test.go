package service

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// malformedDFGs are inline DFG documents outside the shape WriteJSON writes,
// or inside it but defective: each is sent inline to /v1/labels and
// /v1/map. They are valid JSON values, so the request around them decodes.
var malformedDFGs = []string{
	// Type errors.
	`{"nodes":"garbage"}`, `[]`, `"dfg"`, `123`, `true`,
	`{"name":5,"nodes":[{"name":"a","op":"load"}],"edges":[]}`,
	`{"name":"x","nodes":[{"name":"a","op":7}],"edges":[]}`,
	`{"name":"x","nodes":[["a","load"]],"edges":[]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"}],"edges":{}}`,
	// Unknown and case-variant keys, which encoding/json ignores or matches.
	`{"Name":"x","NODES":[{"NAME":"a","Op":"load"}],"Edges":[]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load","extra":[1,{"y":null}]}],"edges":[],"more":{}}`,
	// Nulls.
	`null`, `{}`, `{"name":null,"nodes":null,"edges":null}`,
	`{"name":"x","nodes":[null,{"name":"b","op":"store"}],"edges":[[0,1]]}`,
	`{"name":"x","nodes":[{"name":null,"op":"load"}],"edges":[null]}`,
	`{"name":"x","nodes":null,"edges":[[0,1]]}`,
	// Escapes and non-ASCII names.
	`{"name":"xA\n","nodes":[{"name":"a","op":"load"},{"name":"b\/c","op":"store"}],"edges":[[0,1]]}`,
	`{"name":"é","nodes":[{"name":"ü","op":"load"}],"edges":[]}`,
	"{\"name\":\"bad\xff\",\"nodes\":[{\"name\":\"\xfe\",\"op\":\"load\"}],\"edges\":[]}",
	"{\"name\":\"del\x7f\",\"nodes\":[{\"name\":\"a\",\"op\":\"load\"}],\"edges\":[]}",
	// Edges that are not two unsigned decimal integers.
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,1.0]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,1e0]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0.5,1]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[-1,1]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,-0]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,1000000000]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,99999999999999999999]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[1]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,1,7]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[["0","1"]]}`,
	// Duplicate keys: encoding/json keeps the last.
	`{"name":"a","name":"b","nodes":[{"name":"a","op":"load"}],"edges":[]}`,
	`{"name":"x","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"nodes":[{"name":"c","op":"load"}],"edges":[]}`,
	`{"name":"x","nodes":[{"name":"a","name":"b","op":"load","op":"mul"}],"edges":[]}`,
	// Bad ops and names, and structural defects.
	`{"name":"x","nodes":[{"name":"a","op":"frobnicate"}],"edges":[]}`,
	`{"name":"x","nodes":[{"name":"a","op":"LOAD"}],"edges":[]}`,
	`{"name":"x","nodes":[{"name":"a"}],"edges":[]}`,
	`{"name":"x","nodes":[{"name":"a","op":"add"},{"name":"a","op":"mul"}],"edges":[[0,1]]}`,
	`{"name":"x","nodes":[{"op":"load"},{"name":"n0","op":"add"}],"edges":[[0,1]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"add"}],"edges":[[0,7]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"add"}],"edges":[[0,0]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"add"},{"name":"b","op":"mul"}],"edges":[[0,1],[1,0]]}`,
	`{"name":"x","nodes":[{"name":"a","op":"add"},{"name":"b","op":"mul"}],"edges":[]}`,
	// Well-formed, in the strict shape and outside it by whitespace only.
	`{"name":"ok","nodes":[{"name":"a","op":"load"},{"name":"b","op":"store"}],"edges":[[0,1]]}`,
	"{ \"edges\" : [ [ 0 , 1 ] ] ,\r\n\t\"nodes\" : [ { \"op\" : \"load\" , \"name\" : \"a\" } , { \"op\" : \"store\" } ] }",
}

// malformedLabelsBodies are /v1/labels bodies: broken JSON, unknown,
// case-variant and duplicate keys, nulls, escapes, wrong types and
// trailing data.
var malformedLabelsBodies = []string{
	``, ` `, `{`, `null`, `[]`, `"x"`, `{}`, "\xef\xbb\xbf{\"arch\":\"cgra-4x4\",\"kernels\":[\"gemm\"]}",
	`{"arch":"cgra-4x4","kernels":["gemm"],"turbo":true}`,
	`{"ARCH":"cgra-4x4","Kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","arch":"nope","kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","kernels":["nope"],"kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","kernels":["gemm"]} trailing`,
	`{"arch":"cgra-4x4","kernels":["gemm"]}{"arch":"nope"}`,
	`{"arch":null,"kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","kernels":null,"dfgs":null}`,
	`{"arch":"cgra-4x4","kernels":[null]}`,
	`{"arch":"cgra-4x4","kernels":["gemm","atax"]}`,
	`{"arch":"cgra-4x4","kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","kernels":"gemm"}`,
	`{"arch":5,"kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","kernels":[1]}`,
	`{"arch":"cgra-4x4","dfgs":{}}`,
	`{"arch":"cgra-4x4","dfgs":[{"name":"x",}]}`,
	`{"arch":"cgra-4x4","dfgs":[01]}`,
	`{"arch":"cgra-4x4","dfgs":[1.]}`,
	`{"arch":"cgra-4x4","dfgs":[-]}`,
	`{"arch":"cgra-4x4","dfgs":[1e5,-0.5E-3,tru]}`,
	`{"arch":"cgra-4x4","dfgs":[nul]}`,
	"{\"arch\":\"cgra\t4x4\",\"kernels\":[\"gemm\"]}",
	`{"arch":"\x","kernels":["gemm"]}`,
	`{"arch":"\u12","kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","kernels":["gemm"],}`,
	`{"arch":"cgra-4x4","kernels":["gemm",]}`,
	`{"arch":"cgra-4x4" "kernels":["gemm"]}`,
	`{"arch":"cgra-4x4","kernels":["gemm"]`,
	`{"arch":"cgra-4x4","dfgs":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
	" \r\n\t{ \"kernels\" : [ \"gemm\" , \"atax\" ] , \"arch\" : \"cgra-4x4\" } \n",
	`{"arch":"cgra-4x4","kernels":["gemm"],"dfgs":[]}`,
}

// malformedBodiesSHA256 is the SHA-256 over the status and body of every
// request TestMalformedBodiesAnswerAsBefore sends. The strict passes of
// /v1/labels and ReadJSON only take what encoding/json decodes alike, and
// hand everything else to encoding/json, so they changed no answer. The
// one later change is decodeStrict's: the two labels bodies with data after
// the JSON value answer 400 "data after the JSON value", not 200.
const malformedBodiesSHA256 = "74280c7dc7d2167d3141254590f386d769387388a5dee04837515827ad3b56a6"

// TestMalformedBodiesAnswerAsBefore sends each malformed DFG inline to
// /v1/labels and to /v1/map, and each malformed labels body to /v1/labels,
// and pins every status and body. Label values are pinned on amd64 only,
// like TestLabelsOnDemandBodiesPinned's.
func TestMalformedBodiesAnswerAsBefore(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("label bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	s := testServer(t, Config{})
	h := s.Handler()
	sum := sha256.New()
	var log []string
	record := func(route, req string, code int, body string) {
		fmt.Fprintf(sum, "%s %q %d %d\n%s\n", route, req, code, len(body), body)
		log = append(log, fmt.Sprintf("%s %q: %d %s", route, req, code, body))
	}
	for _, doc := range malformedDFGs {
		req := `{"arch":"cgra-4x4","kernels":["gemm"],"dfgs":[` + doc + `]}`
		w := postLabels(t, h, req)
		record("/v1/labels", req, w.Code, w.Body.String())
		req = `{"arch":"cgra-4x4","engine":"greedy","dfg":` + doc + `}`
		w = postMap(t, h, req)
		record("/v1/map", req, w.Code, w.Body.String())
	}
	for _, req := range malformedLabelsBodies {
		w := postLabels(t, h, req)
		record("/v1/labels", req, w.Code, w.Body.String())
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != malformedBodiesSHA256 {
		for _, l := range log {
			t.Log(l)
		}
		t.Fatalf("answers SHA-256 = %s, want %s", got, malformedBodiesSHA256)
	}
}
