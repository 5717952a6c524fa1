package collect

// ScanJSONPayload lets the external tests, which may import the in-repo
// clients, see which decoder takes a frame.
var ScanJSONPayload = scanJSONPayload
