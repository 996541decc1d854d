package farm

import (
	"encoding/json"
	"reflect"
	"testing"

	"acstab/internal/tool"
)

// FuzzDecodeRequest feeds arbitrary bodies to DecodeRequest, which must
// never panic. A body it accepts must mean the same run after a round
// trip through the client side of the wire: mapping its options back with
// WireOptions, encoding the request and decoding it again yields the
// same options. The seed corpus in testdata/fuzz/FuzzDecodeRequest holds
// the requests the tests send.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, opts, we := DecodeRequest(body)
		if we != nil {
			return
		}
		again, err := json.Marshal(&Request{Netlist: req.Netlist, Options: WireOptions(opts)})
		if err != nil {
			t.Fatal(err)
		}
		_, opts2, we := DecodeRequest(again)
		if we != nil {
			t.Fatalf("re-encoded request %s refused: %v", again, we)
		}
		if a, b := sameLists(opts), sameLists(opts2); !reflect.DeepEqual(a, b) {
			t.Fatalf("options changed across the wire:\n first  %+v\n second %+v", a, b)
		}
	})
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
