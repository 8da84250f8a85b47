package lint

// JSONDiagnostic is the stable machine-readable form of a Diagnostic, the
// schema cmd/stat4-lint -json emits. Editor integrations and CI annotators
// parse this; field names are part of the tool's interface.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// JSON converts the diagnostic to its wire form.
func (d Diagnostic) JSON() JSONDiagnostic {
	return JSONDiagnostic{
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Column:   d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
}

// ToJSON converts a diagnostic list to its wire form, never nil, so the
// emitted JSON is [] rather than null on a clean run.
func ToJSON(diags []Diagnostic) []JSONDiagnostic {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, d.JSON())
	}
	return out
}
