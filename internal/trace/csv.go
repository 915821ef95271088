package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteCSV emits the matrix as N rows of N comma-separated values, so
// profiles can round-trip through spreadsheets and external profilers.
func (m *Matrix) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	record := make([]string, m.N)
	for _, row := range m.Counts {
		for j, v := range row {
			record[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a square CSV traffic matrix: N rows of N finite,
// non-negative values with a zero diagonal. It is how externally profiled traffic
// (e.g. from a real Graphite deployment) enters the library.
func ReadCSV(r io.Reader) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for better messages
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: parsing CSV: %w", err)
	}
	n := len(records)
	if n < 2 {
		return nil, fmt.Errorf("trace: CSV matrix has %d rows, want >= 2", n)
	}
	m := NewMatrix(n)
	for i, rec := range records {
		if len(rec) != n {
			return nil, fmt.Errorf("trace: CSV row %d has %d fields, want %d", i, len(rec), n)
		}
		for j, field := range rec {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: CSV cell (%d,%d): %w", i, j, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("trace: CSV cell (%d,%d) is not finite", i, j)
			}
			if v < 0 {
				return nil, fmt.Errorf("trace: CSV cell (%d,%d) is negative", i, j)
			}
			if i == j && v != 0 {
				return nil, fmt.Errorf("trace: CSV diagonal (%d,%d) is nonzero", i, j)
			}
			m.Counts[i][j] = v
		}
	}
	return m, nil
}
