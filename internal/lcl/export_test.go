package lcl

// UnmarshalReference exposes the encoding/json decoder to the external
// tests that compare the one-pass decoder against it.
func (p *Problem) UnmarshalReference(data []byte) error { return p.unmarshalReference(data) }
