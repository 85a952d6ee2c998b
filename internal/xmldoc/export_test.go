package xmldoc

import "errors"

// The unsupported constructs ParseString names, and its nesting bound, for
// the external tests that hold it to encoding/xml.
const (
	UnsupportedDecl      = unsupportedDecl
	UnsupportedName      = unsupportedName
	UnsupportedSurrogate = unsupportedSurrogate
	UnsupportedXMLNS     = unsupportedXMLNS
	UnsupportedDepth     = unsupportedDepth
	MaxDepth             = maxDepth
)

// Unsupported returns the construct a ParseString error rejects as outside
// the accepted subset; ok is false for an error that is a syntax error.
func Unsupported(err error) (construct string, ok bool) {
	var pe *parseError
	if errors.As(err, &pe) && pe.unsupported {
		return pe.msg, true
	}
	return "", false
}

// DiffValues names the first node of a parsed document whose StringValue
// differs from the eager oracle (preorderValues), or returns "".
func DiffValues(d *Document) string { return diffValues(d) }
