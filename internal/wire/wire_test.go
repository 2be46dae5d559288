package wire

import (
	"strings"
	"testing"

	"ribbon/api"
)

func TestDecodeIsStrict(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"model":"MT-WND"}`:          true,
		"{\"model\":\"MT-WND\"}\n \t": true,
		``:                            false,
		`{"model":"MT-WND","x":1}`:    false,
		`{"model":"MT-WND"}garbage`:   false,
		`{"model":"MT-WND"}}`:         false,
		`{"model":"MT-WND"}]`:         false,
		`{"model":"MT-WND"} {}`:       false,
	} {
		var spec api.ServiceSpec
		e := Decode(strings.NewReader(body), &spec)
		if (e == nil) != ok {
			t.Errorf("Decode(%q) = %v, want ok=%v", body, e, ok)
		}
		if e != nil && e.Code != api.ErrInvalidRequest {
			t.Errorf("Decode(%q) code %s, want %s", body, e.Code, api.ErrInvalidRequest)
		}
	}
}
