package graph

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"unicode"
	"unicode/utf8"

	"repro/internal/pool"
)

// ReadEdgeListParallel parses the WriteEdgeList text format with the
// same semantics as ReadEdgeList — same graphs accepted, same inputs
// rejected, same edge order — but built for throughput: the whole
// input is read into memory, split into byte chunks on line
// boundaries, and the chunks are parsed concurrently on a worker pool
// (internal/pool, the pool behind the incremental engine)
// by a zero-allocation scanner that replaces the per-line
// strings.Fields + strconv.Atoi hot path of the sequential loader.
// workers <= 0 selects GOMAXPROCS.
//
// The one intentional difference from ReadEdgeList: there is no
// per-line length limit (the sequential loader rejects lines longer
// than 1 MiB with its scanner's token-size error).
func ReadEdgeListParallel(r io.Reader, workers int) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseEdgeList(data, workers)
}

// ParseEdgeList is ReadEdgeListParallel over an in-memory buffer. It
// is a thin wrapper over ParseEdgeListSpan, which parses straight
// into the columnar arc representation the Graph adopts without a
// copy.
func ParseEdgeList(data []byte, workers int) (*Graph, error) {
	n, span, err := ParseEdgeListSpan(data, workers)
	if err != nil {
		return nil, err
	}
	g := New(n)
	g.U, g.V = span.U, span.V
	return g, nil
}

// ParseEdgeListSpan parses the text edge-list format directly into an
// arc-pair span and the vertex count it was validated against — the
// columnar loader hook, sharing chunking, workers, and error
// semantics with ParseEdgeList. The chunk parsers already emit arc
// columns; this entry point hands them out without wrapping them in a
// Graph, so streaming consumers can batch-ingest a parsed file with
// no further conversion.
func ParseEdgeListSpan(data []byte, workers int) (int, EdgeSpan, error) {
	// The header is the first non-blank, non-comment line: "n m".
	n, want, body, err := parseHeader(data)
	if err != nil {
		return 0, EdgeSpan{}, err
	}

	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Chunking below ~64 KiB costs more in coordination than it saves;
	// parse small inputs inline on the calling goroutine.
	if w > 1 && len(data)-body < 1<<16 {
		w = 1
	}

	// More byte chunks than workers, scheduled at grain 1 on the
	// locality-aware scheduler: each worker starts on the chunks of
	// its sticky home range and steals the rest, so a chunk whose
	// lines are unusually dense (or hit the slow parse path) cannot
	// strand a fixed w-th of the input behind one worker.
	nc := w
	if w > 1 {
		nc = w * 4
	}

	type chunk struct {
		u, v []int32
		err  *parseOffsetError
	}
	chunks := make([]chunk, nc)
	cuts := chunkBounds(data, body, nc)
	// The header's edge count sizes each chunk's output (plus slack
	// for imbalance); parseEdgeChunk clamps it against the chunk's
	// actual byte size so a lying header cannot drive the allocation.
	estArcs := 2 * (want/nc + want/(8*nc) + 16)
	parseOne := func(i int) {
		u, v, perr := parseEdgeChunk(data, cuts[i], cuts[i+1], n, estArcs)
		chunks[i] = chunk{u, v, perr}
	}
	if w == 1 {
		parseOne(0)
	} else {
		p := pool.New(w)
		p.Sharded(nc, 1, func(_, lo, hi int) bool {
			for i := lo; i < hi; i++ {
				parseOne(i)
			}
			return true
		})
		p.Close()
	}

	// The first error in input order wins, so concurrent parses report
	// identically to the sequential loader.
	var firstErr *parseOffsetError
	for i := range chunks {
		if e := chunks[i].err; e != nil && (firstErr == nil || e.off < firstErr.off) {
			firstErr = e
		}
	}
	if firstErr != nil {
		return 0, EdgeSpan{}, fmt.Errorf("graph: line %d: %s", 1+lineOf(data, firstErr.off), firstErr.msg)
	}

	var span EdgeSpan
	if w == 1 {
		span.U, span.V = chunks[0].u, chunks[0].v
	} else {
		total := 0
		for i := range chunks {
			total += len(chunks[i].u)
		}
		span.U = make([]int32, 0, total)
		span.V = make([]int32, 0, total)
		for i := range chunks {
			span.U = append(span.U, chunks[i].u...)
			span.V = append(span.V, chunks[i].v...)
		}
	}
	if span.Len() != want {
		return 0, EdgeSpan{}, fmt.Errorf("graph: header declared %d edges, read %d", want, span.Len())
	}
	return n, span, nil
}

// parseOffsetError is a parse failure at an absolute byte offset; the
// line number is derived lazily (counting newlines only on the error
// path keeps the hot path untouched).
type parseOffsetError struct {
	off int
	msg string
}

// lineOf counts the newlines before off: offset → zero-based line.
func lineOf(data []byte, off int) int {
	line := 0
	for _, c := range data[:off] {
		if c == '\n' {
			line++
		}
	}
	return line
}

// parseHeader scans leading blank/comment lines, parses the "n m"
// header line, validates it, and returns the offset where the edge
// body starts.
func parseHeader(data []byte) (n, m, body int, err error) {
	i := 0
	for i < len(data) {
		j := skipFieldSpace(data, i, len(data))
		if j >= len(data) {
			break
		}
		if data[j] == '\n' {
			i = j + 1
			continue
		}
		if data[j] == '#' {
			for j < len(data) && data[j] != '\n' {
				j++
			}
			i = j + 1
			continue
		}
		var hdr [2]int
		end, perr := parseEdgeLine(data, j, len(data), &hdr)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("graph: line %d: %s", 1+lineOf(data, perr.off), perr.msg)
		}
		if err := validateHeader(hdr[0], hdr[1]); err != nil {
			return 0, 0, 0, fmt.Errorf("graph: line %d: %v", 1+lineOf(data, j), err)
		}
		return hdr[0], hdr[1], end, nil
	}
	return 0, 0, 0, fmt.Errorf("graph: empty input")
}

// chunkBounds splits data[body:] into w spans cut on line boundaries:
// cuts[i]..cuts[i+1] for worker i. Spans may be empty when the input
// has fewer lines than workers.
func chunkBounds(data []byte, body, w int) []int {
	cuts := make([]int, w+1)
	cuts[0] = body
	size := len(data) - body
	for k := 1; k < w; k++ {
		c := body + size*k/w
		if c < cuts[k-1] {
			c = cuts[k-1]
		}
		for c < len(data) && data[c] != '\n' {
			c++
		}
		if c < len(data) {
			c++
		}
		cuts[k] = c
	}
	cuts[w] = len(data)
	return cuts
}

// parseEdgeChunk parses the complete lines in data[lo:hi) into arc
// pairs, validating every endpoint against [0, n). It allocates only
// the output slices, starting at capacity estArcs — clamped by what
// the chunk's bytes can physically hold (an edge line is ≥ 4 bytes, 3
// if it ends the input), so a lying header cannot force a huge
// allocation, only append regrowth.
func parseEdgeChunk(data []byte, lo, hi, n, estArcs int) (u, v []int32, perr *parseOffsetError) {
	if maxArcs := (hi - lo + 1) / 4 * 2; estArcs > maxArcs {
		estArcs = maxArcs
	}
	u = make([]int32, 0, estArcs)
	v = make([]int32, 0, estArcs)
	i := lo
	for i < hi {
		// Fast path for the shape WriteEdgeList emits — "digits ' '
		// digits '\n'" with both endpoints in range. Anything else
		// (signs, tabs, comments, \r\n, overflow, range errors) bails
		// to the general parser below, which re-reads the line from
		// its start and owns all error reporting; the equivalence
		// fuzzer holds both paths to ReadEdgeList's exact semantics.
		if c := data[i]; c >= '0' && c <= '9' {
			a, j, ok := 0, i, true
			for ; j < hi; j++ {
				d := data[j]
				if d < '0' || d > '9' {
					break
				}
				a = a*10 + int(d-'0')
				if a > math.MaxInt32 {
					ok = false
					break
				}
			}
			if ok && j < hi && data[j] == ' ' {
				b, k, digits := 0, j+1, false
				for ; k < hi; k++ {
					d := data[k]
					if d < '0' || d > '9' {
						break
					}
					b = b*10 + int(d-'0')
					digits = true
					if b > math.MaxInt32 {
						ok = false
						break
					}
				}
				if ok && digits && (k >= hi || data[k] == '\n') && a < n && b < n {
					u = append(u, int32(a), int32(b))
					v = append(v, int32(b), int32(a))
					if k < hi {
						k++
					}
					i = k
					continue
				}
			}
		}
		j := skipFieldSpace(data, i, hi)
		if j >= hi {
			break
		}
		if data[j] == '\n' {
			i = j + 1
			continue
		}
		if data[j] == '#' {
			for j < hi && data[j] != '\n' {
				j++
			}
			i = j + 1
			continue
		}
		var e [2]int
		end, err := parseEdgeLine(data, j, hi, &e)
		if err != nil {
			return nil, nil, err
		}
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, nil, &parseOffsetError{j, fmt.Sprintf("edge {%d,%d} out of range [0,%d)", a, b, n)}
		}
		u = append(u, int32(a), int32(b))
		v = append(v, int32(b), int32(a))
		i = end
	}
	return u, v, nil
}

// parseEdgeLine parses exactly two integers at data[i:hi) followed by
// optional field whitespace and a newline (or end of input), storing
// them in out and returning the offset just past the line's newline.
// data[i] is the first byte of the first field.
func parseEdgeLine(data []byte, i, hi int, out *[2]int) (end int, perr *parseOffsetError) {
	for f := 0; f < 2; f++ {
		if f == 1 {
			j := skipFieldSpace(data, i, hi)
			if j == i || j >= hi || data[j] == '\n' {
				return 0, &parseOffsetError{i, "expected two fields"}
			}
			i = j
		}
		val, next, ok := parseInt(data, i, hi)
		if !ok {
			return 0, &parseOffsetError{i, "invalid integer"}
		}
		out[f] = val
		i = next
	}
	j := skipFieldSpace(data, i, hi)
	if j < hi && data[j] != '\n' {
		if j == i {
			return 0, &parseOffsetError{i, "invalid integer"}
		}
		return 0, &parseOffsetError{j, "expected two fields"}
	}
	if j < hi {
		j++
	}
	return j, nil
}

// skipFieldSpace advances past field-separating whitespace: the ASCII
// separators other than '\n' on the byte fast path, and any other
// unicode.IsSpace rune (what strings.Fields splits on) off it.
func skipFieldSpace(data []byte, i, hi int) int {
	for i < hi {
		c := data[i]
		if c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			return i
		}
		r, size := utf8.DecodeRune(data[i:hi])
		if r == utf8.RuneError && size <= 1 {
			return i
		}
		if !unicode.IsSpace(r) {
			return i
		}
		i += size
	}
	return hi
}

// parseInt parses a decimal integer with an optional sign at data[i:hi),
// accepting the syntax strconv.Atoi accepts (modulo math.MinInt, which
// no caller can use: it is out of range as a vertex count and as an
// endpoint alike). ok is false when no digit follows or on overflow.
func parseInt(data []byte, i, hi int) (val, next int, ok bool) {
	neg := false
	if i < hi && (data[i] == '+' || data[i] == '-') {
		neg = data[i] == '-'
		i++
	}
	start := i
	v := 0
	for i < hi {
		c := data[i]
		if c < '0' || c > '9' {
			break
		}
		d := int(c - '0')
		if v > (math.MaxInt-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}
