package lint

import "go/token"

// Diagnostic converts the wire form back, for the -json round-trip test; the
// byte offset within the file is not part of the schema and comes back zero.
func (j JSONDiagnostic) Diagnostic() Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: j.File, Line: j.Line, Column: j.Column},
		Analyzer: j.Analyzer,
		Message:  j.Message,
	}
}
