package farm

import (
	"encoding/json"
	"reflect"
	"testing"

	"acstab/internal/tool"
)

// FuzzDecodeRequest feeds arbitrary bodies to DecodeRequest, which must
// never panic. Options it accepts must be options a run accepts as they
// are (a fixed point of tool.ResolveOptions), and must mean the same run
// after a round trip through the client side of the wire: mapping them
// back with WireOptions, encoding the request and decoding it again
// yields the same options. The seed corpus in
// testdata/fuzz/FuzzDecodeRequest holds the requests the tests send.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, opts, we := DecodeRequest(body)
		if we != nil {
			return
		}
		checkResolved(t, opts)
		again, err := json.Marshal(&Request{Netlist: req.Netlist, Options: WireOptions(opts)})
		if err != nil {
			t.Fatal(err)
		}
		_, opts2, we := DecodeRequest(again)
		checkSameRun(t, again, opts, opts2, we)
	})
}

// FuzzDecodeBatchRequest is FuzzDecodeRequest for the v2 batch decoder:
// no panic, accepted options are a fixed point of tool.ResolveOptions,
// and they survive a re-encode. The seed corpus in
// testdata/fuzz/FuzzDecodeBatchRequest holds the batch bodies the tests
// send.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, opts, we := DecodeBatchRequest(body)
		if we != nil {
			return
		}
		checkResolved(t, opts)
		again, err := json.Marshal(&BatchRequest{V: WireV2, Netlist: req.Netlist,
			Variants: req.Variants, Options: WireOptions(opts)})
		if err != nil {
			t.Fatal(err)
		}
		_, opts2, we := DecodeBatchRequest(again)
		checkSameRun(t, again, opts, opts2, we)
	})
}

// checkResolved fails unless opts resolve to themselves without error: a
// decoder that accepts options a run would refuse or rewrite lets the
// request fail, or change meaning, after decode.
func checkResolved(t *testing.T, opts tool.Options) {
	t.Helper()
	again, err := tool.ResolveOptions(opts)
	if err != nil {
		t.Fatalf("decoded options %+v refused by tool.ResolveOptions: %v", opts, err)
	}
	if !reflect.DeepEqual(again, opts) {
		t.Fatalf("decoded options are not resolved:\n decoded  %+v\n resolved %+v", opts, again)
	}
}

// checkSameRun fails unless the re-encoded request body was accepted with
// the options the first decode produced.
func checkSameRun(t *testing.T, body []byte, first, second tool.Options, we *WireError) {
	t.Helper()
	if we != nil {
		t.Fatalf("re-encoded request %s refused: %v", body, we)
	}
	if a, b := sameLists(first), sameLists(second); !reflect.DeepEqual(a, b) {
		t.Fatalf("options changed across the wire:\n first  %+v\n second %+v", a, b)
	}
}

// sameLists maps empty node lists to nil: the wire omits an empty list,
// and no run tells the two apart.
func sameLists(o tool.Options) tool.Options {
	if len(o.SkipNodes) == 0 {
		o.SkipNodes = nil
	}
	if len(o.OnlyNodes) == 0 {
		o.OnlyNodes = nil
	}
	return o
}
