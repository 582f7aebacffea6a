package reduce

import "encoding/json"

// EncodeReply encodes the reply envelope a rank sends up the tree, as
// its handle does.
func EncodeReply[P any](ranks, missing int, agg *P) ([]byte, error) {
	return json.Marshal(treeResponse[P]{Ranks: ranks, Missing: missing, Partial: missing > 0, Aggregate: agg})
}

// DecodeReply decodes a reply envelope as a parent does.
func DecodeReply[P any](raw []byte) (ranks, missing int, agg *P, err error) {
	var tr treeResponse[P]
	err = json.Unmarshal(raw, &tr)
	return tr.Ranks, tr.Missing, tr.Aggregate, err
}
