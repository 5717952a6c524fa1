package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Redaction turns an audit record into something that can leave the
// host inside a support bundle: user agents carry device and browser
// identity, and the feature vector IS the fingerprint the paper is
// about, so both are reduced to hashes by default. The -no-redact
// escape hatch exists for operators debugging inside their own trust
// boundary; everything else ships redacted.

// redactUA replaces a user-agent string with an unlinkable-but-matchable
// token: "sha256:<first 8 bytes hex>#<original length>". Empty strings
// stay empty.
func redactUA(ua string) string {
	if ua == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(ua))
	return fmt.Sprintf("sha256:%x#%d", sum[:8], len(ua))
}

// vectorDigest returns the hex SHA-256 of a feature vector's big-endian
// IEEE-754 encoding ("" for an empty vector). Identical vectors digest
// identically, so redacted records still cluster by fingerprint.
func vectorDigest(vec []float64) string {
	if len(vec) == 0 {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range vec {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// redactRecord returns a copy of rec safe for export: UserAgent hashed,
// Vector replaced by its digest and width, Explanation dropped (its
// per-feature contributions reconstruct feature values). Already
// redacted records pass through unchanged, so redaction is idempotent.
func redactRecord(rec Record) Record {
	if rec.Redacted {
		return rec
	}
	out := rec
	out.Redacted = true
	out.UserAgent = redactUA(rec.UserAgent)
	out.VectorSHA256 = vectorDigest(rec.Vector)
	out.VectorDim = len(rec.Vector)
	out.Vector = nil
	out.Explanation = nil
	return out
}

// RedactRecords maps redactRecord over a slice, returning a new slice.
func RedactRecords(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = redactRecord(r)
	}
	return out
}
