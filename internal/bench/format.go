package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// FprintMarkdown renders the table as GitHub-flavoured markdown.
func (t *Table) FprintMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Claim != "" {
		if _, err := fmt.Fprintf(w, "**Claim:** %s\n\n", t.Claim); err != nil {
			return err
		}
	}
	row := func(cells []string) error {
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
		return err
	}
	if err := row(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if err := row(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*%s*\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FprintCSV renders the table as CSV with a leading header row. The
// experiment id is prefixed as the first column so multiple tables can
// share one file.
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"experiment"}, t.Header...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, r...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FprintJSON renders the table as one JSON object per line (JSONL when
// several experiments share a stream). This is the machine-readable
// artifact format: `ccbench -format json > BENCH_<date>.json` snapshots
// e.g. the E11 simulated-vs-incremental wall-clock table for tracking
// across commits.
func (t *Table) FprintJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Claim  string     `json:"claim,omitempty"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Claim, t.Header, t.Rows, t.Notes})
}

// Format names a rendering style for RenderTo.
type Format int

const (
	// FormatText is the aligned plain-text rendering (Fprint).
	FormatText Format = iota
	// FormatMarkdown is GitHub-flavoured markdown.
	FormatMarkdown
	// FormatCSV is comma-separated values.
	FormatCSV
	// FormatJSON is one JSON object per table (JSONL across tables).
	FormatJSON
)

// ParseFormat maps a flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text", "":
		return FormatText, nil
	case "markdown", "md":
		return FormatMarkdown, nil
	case "csv":
		return FormatCSV, nil
	case "json":
		return FormatJSON, nil
	}
	return 0, fmt.Errorf("bench: unknown format %q (want text, markdown, csv, or json)", s)
}

// RenderTo renders the table in the given format.
func (t *Table) RenderTo(w io.Writer, f Format) error {
	switch f {
	case FormatMarkdown:
		return t.FprintMarkdown(w)
	case FormatCSV:
		return t.FprintCSV(w)
	case FormatJSON:
		return t.FprintJSON(w)
	default:
		t.Fprint(w)
		return nil
	}
}
