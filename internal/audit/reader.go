package audit

import (
	"fmt"
	"os"
)

// ScanStats summarizes a ledger walk.
type ScanStats struct {
	// Segments is how many segment files were scanned.
	Segments int
	// Records is how many intact records were decoded.
	Records int
	// TornSegments lists segment paths whose tail did not verify
	// (short frame or checksum mismatch). A torn tail on the final
	// segment is the expected signature of a crash mid-append; a torn
	// tail on any earlier segment means corruption, since sealed
	// segments are never written again.
	TornSegments []string
	// TornFinal reports whether the only torn segment is the final
	// one.
	TornFinal bool
}

// Clean reports whether the walk saw no torn or corrupt data at all.
func (s ScanStats) Clean() bool { return len(s.TornSegments) == 0 }

// Acceptable reports whether the ledger verifies: every frame intact,
// except possibly a torn tail on the final segment (a crash artifact
// the writer would truncate on reopen).
func (s ScanStats) Acceptable() bool {
	if len(s.TornSegments) == 0 {
		return true
	}
	return len(s.TornSegments) == 1 && s.TornFinal
}

// Scan walks every record in the ledger at dir in segment order,
// calling fn for each intact record. A non-nil error from fn aborts the
// walk and is returned. Framing damage does not abort the walk — it
// seals the damaged segment early and is reported in ScanStats.
func Scan(dir, prefix string, fn func(Record) error) (ScanStats, error) {
	var stats ScanStats
	segments, err := Segments(dir, prefix)
	if err != nil {
		return stats, err
	}
	for i, path := range segments {
		f, err := os.Open(path)
		if err != nil {
			return stats, fmt.Errorf("audit: open %s: %w", path, err)
		}
		info, statErr := f.Stat()
		s, err := scanFrames(f, fn)
		f.Close()
		stats.Segments++
		stats.Records += s.records
		if err != nil {
			return stats, err
		}
		if statErr != nil {
			return stats, fmt.Errorf("audit: stat %s: %w", path, statErr)
		}
		if s.good != info.Size() {
			stats.TornSegments = append(stats.TornSegments, path)
			stats.TornFinal = i == len(segments)-1
		}
	}
	return stats, nil
}
