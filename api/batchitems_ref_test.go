package api_test

// The router's envelope check before api.BatchItems replaced it, kept
// verbatim as FuzzBatchItems' reference: json.Unmarshal into
// {schema_version, items} with items kept as raw bytes.

import (
	"bytes"
	"encoding/json"
	"errors"

	"mipp/api"
)

// span is json.RawMessage without the copy: it keeps the bytes
// json.Unmarshal hands it, which are a sub-slice of the input.
type span []byte

func (s *span) UnmarshalJSON(b []byte) error {
	*s = b
	return nil
}

// batchItems checks a replica's 2xx evaluate answer and returns the bytes
// inside its items array, a sub-slice of data, to be spliced without
// decoding one item.
func batchItems(data []byte) ([]byte, error) {
	var sub struct {
		SchemaVersion int  `json:"schema_version"`
		Items         span `json:"items"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, err
	}
	if err := api.CheckVersion(sub.SchemaVersion); err != nil {
		return nil, err
	}
	if len(sub.Items) == 0 || sub.Items[0] != '[' {
		return nil, errors.New("items is not an array")
	}
	return bytes.TrimSpace(sub.Items[1 : len(sub.Items)-1]), nil
}
