package rbcast

// PlainResult lets the external codec tests reach plainResult: Result's
// fields, encoded and decoded by encoding/json's reflection.
type PlainResult = plainResult
