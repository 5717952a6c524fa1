package audit

// OpenTapped is Open with the segment log's write seam, for the tests of
// package audit_test (which may import the serving packages).
var OpenTapped = open

// DecodeFrame decodes one frame body as Scan does, without resolving a
// record's class: the record, its class id (for a class frame, the id it
// defines; 0 for an inline record), whether the body is a class frame,
// and whether it decodes at all.
func DecodeFrame(body []byte) (rec Record, class int, defines, ok bool) {
	var f frame
	defines, ok = decodeFrame(body, &f)
	return f.Record, f.Class, defines, ok
}
