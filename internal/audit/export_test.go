package audit

// OpenTapped is Open with the segment log's write seam, for the tests of
// package audit_test (which may import the serving packages).
var OpenTapped = open
