package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"vppb/internal/source"
	"vppb/internal/vtime"
)

// The text format is line-oriented and self-describing: a header block,
// thread and object tables, then one "event" line per probe firing with
// key=value fields. It is the durable interchange format between
// vppb-record and vppb-sim. The binary format is a compact varint encoding
// of the same data for large logs.

const textMagic = "# vppb-log v1"

// WriteText writes the log in the text format, streaming record by record
// through a buffered writer: a large log never materializes as one
// contiguous byte slice on the way out.
func WriteText(w io.Writer, l *Log) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	// One scratch line, reused for every record.
	buf := make([]byte, 0, 256)
	buf = appendTextPreamble(buf, l)
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for i := range l.Threads {
		buf = appendThreadLine(buf[:0], &l.Threads[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	for i := range l.Objects {
		buf = appendObjectLine(buf[:0], &l.Objects[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	for i := range l.Events {
		buf = appendEventLine(buf[:0], &l.Events[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendText appends the text encoding of l to dst and returns the result.
func AppendText(dst []byte, l *Log) []byte {
	dst = appendTextPreamble(dst, l)
	for i := range l.Threads {
		dst = appendThreadLine(dst, &l.Threads[i])
	}
	for i := range l.Objects {
		dst = appendObjectLine(dst, &l.Objects[i])
	}
	for i := range l.Events {
		dst = appendEventLine(dst, &l.Events[i])
	}
	return dst
}

func appendTextPreamble(dst []byte, l *Log) []byte {
	dst = append(dst, textMagic...)
	dst = append(dst, '\n')
	dst = append(dst, "program "...)
	dst = appendQuoted(dst, l.Header.Program)
	dst = append(dst, "\ncpus "...)
	dst = strconv.AppendInt(dst, int64(l.Header.CPUs), 10)
	dst = append(dst, "\nlwps "...)
	dst = strconv.AppendInt(dst, int64(l.Header.LWPs), 10)
	dst = append(dst, "\nprobecost "...)
	dst = strconv.AppendInt(dst, int64(l.Header.ProbeCost), 10)
	dst = append(dst, "\nstart "...)
	dst = strconv.AppendInt(dst, int64(l.Header.Start), 10)
	dst = append(dst, "\nend "...)
	dst = strconv.AppendInt(dst, int64(l.Header.End), 10)
	return append(dst, '\n')
}

func appendThreadLine(dst []byte, t *ThreadInfo) []byte {
	dst = append(dst, "thread "...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, " name="...)
	dst = appendQuoted(dst, t.Name)
	dst = append(dst, " func="...)
	dst = appendQuoted(dst, t.Func)
	dst = append(dst, " bound="...)
	dst = strconv.AppendInt(dst, int64(b2i(t.Bound)), 10)
	dst = append(dst, " boundcpu="...)
	dst = strconv.AppendInt(dst, int64(t.BoundCPU), 10)
	dst = append(dst, " prio="...)
	dst = strconv.AppendInt(dst, int64(t.Prio), 10)
	return append(dst, '\n')
}

func appendObjectLine(dst []byte, o *ObjectInfo) []byte {
	dst = append(dst, "object "...)
	dst = strconv.AppendInt(dst, int64(o.ID), 10)
	dst = append(dst, " kind="...)
	dst = append(dst, o.Kind.String()...)
	dst = append(dst, " name="...)
	dst = appendQuoted(dst, o.Name)
	dst = append(dst, " count="...)
	dst = strconv.AppendInt(dst, int64(o.InitCount), 10)
	return append(dst, '\n')
}

func appendEventLine(dst []byte, ev *Event) []byte {
	dst = append(dst, "event "...)
	dst = strconv.AppendInt(dst, ev.Seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(ev.Time), 10)
	dst = append(dst, ' ', 'T')
	dst = strconv.AppendInt(dst, int64(ev.Thread), 10)
	dst = append(dst, ' ')
	dst = append(dst, ev.Class.String()...)
	dst = append(dst, ' ')
	dst = append(dst, ev.Call.String()...)
	if ev.Object != 0 {
		dst = append(dst, " obj="...)
		dst = strconv.AppendInt(dst, int64(ev.Object), 10)
	}
	if ev.Mutex != 0 {
		dst = append(dst, " mutex="...)
		dst = strconv.AppendInt(dst, int64(ev.Mutex), 10)
	}
	if ev.Target != 0 {
		dst = append(dst, " target="...)
		dst = strconv.AppendInt(dst, int64(ev.Target), 10)
	}
	if ev.Call == CallMutexTryLock || ev.Call == CallSemaTryWait || ev.Call == CallCondTimedWait {
		dst = append(dst, " ok="...)
		dst = strconv.AppendInt(dst, int64(b2i(ev.OK)), 10)
	}
	if ev.Timeout != 0 {
		dst = append(dst, " timeout="...)
		dst = strconv.AppendInt(dst, int64(ev.Timeout), 10)
	}
	if ev.Prio != 0 {
		dst = append(dst, " prio="...)
		dst = strconv.AppendInt(dst, int64(ev.Prio), 10)
	}
	if !ev.Loc.IsZero() {
		dst = append(dst, " loc="...)
		dst = appendQuoted(dst, ev.Loc.File)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(ev.Loc.Line), 10)
	}
	return append(dst, '\n')
}

// quote escapes a name so it survives as exactly one whitespace-delimited
// field of the text format: "-" stands for the empty string, backslash
// introduces escapes, and every rune that strings.Fields would split on
// (any Unicode space) is encoded.
func quote(s string) string {
	if s == "" {
		return "-"
	}
	if s == "-" {
		return `\-`
	}
	if !needsQuoting(s) {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == '\\':
			b.WriteString(`\\`)
		case r == ' ':
			b.WriteString(`\s`)
		case r == '\n':
			b.WriteString(`\n`)
		case r == '\t':
			b.WriteString(`\t`)
		case unicode.IsSpace(r):
			// The remaining Unicode spaces (\r, NBSP, U+2028, ...) are all
			// in the BMP, so four hex digits always suffice.
			fmt.Fprintf(&b, `\u%04x`, r)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// needsQuoting reports whether quote would change s. Nearly every name and
// source path in a log is plain, so the encoders check first and copy the
// string bytes straight through instead of rebuilding them.
func needsQuoting(s string) bool {
	for _, r := range s {
		if r == '\\' || unicode.IsSpace(r) {
			return true
		}
	}
	return false
}

// appendQuoted appends quote(s) to dst without allocating in the common
// no-escape case.
func appendQuoted(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, '-')
	}
	if s != "-" && !needsQuoting(s) {
		return append(dst, s...)
	}
	return append(dst, quote(s)...)
}

// unquote is the exact inverse of quote.
func unquote(s string) string {
	if s == "-" {
		return ""
	}
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 's':
			b.WriteByte(' ')
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case '-':
			b.WriteByte('-')
		case 'u':
			if i+4 < len(s) {
				if v, err := strconv.ParseUint(s[i+1:i+5], 16, 32); err == nil {
					b.WriteRune(rune(v))
					i += 4
					continue
				}
			}
			b.WriteString(`\u`)
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Decode parses a vppb log in either encoding: bytes that open with the
// binary magic's "VPPB" prefix (and are long enough to hold it) go to
// DecodeBinary, everything else to the text decoder.
func Decode(data []byte) (*Log, error) {
	if len(data) >= len(binMagic) && string(data[:4]) == "VPPB" {
		return DecodeBinary(data)
	}
	return decodeText(data)
}

// maxTextLine is the longest line the text format admits. A longer line
// fails with bufio.ErrTooLong, as it did when the reader scanned lines
// with a bufio.Scanner of this capacity.
const maxTextLine = 1 << 26

// minEventLine is the length of the shortest line the decoder accepts as
// an event ("io" is the shortest call name). It caps the presize of
// Events, so a hostile body full of "event" prefixes cannot make the
// decoder allocate more than a few bytes of Event per byte of input.
const minEventLine = len("event 0 0 T0 after io\n")

// textDecoder is the text-format reader. It works on the input bytes in
// place: lines and fields are subslices, numbers go to strconv through a
// string(field) conversion that does not escape (so it stays on the stack
// for fields up to 32 bytes), and every name is copied out of the input
// once into a per-decode
// intern table, so the decoded log neither allocates per line nor keeps
// any part of the input alive.
type textDecoder struct {
	log   *Log
	names map[string]string // raw (quoted) field -> unquoted, interned name
}

// decodeText parses a text-format log. Its results and error messages,
// line numbers included, are those of reading the input line by line and
// splitting each trimmed line with strings.Fields.
func decodeText(data []byte) (*Log, error) {
	d := textDecoder{log: &Log{}, names: make(map[string]string)}
	// Every counted line is parsed as an event (or fails the decode), so
	// a presized Events is never returned empty, and an event-less log
	// keeps a nil Events, as appending would leave it.
	if n := min(bytes.Count(data, []byte("\nevent ")), len(data)/minEventLine); n > 0 {
		d.log.Events = make([]Event, 0, n)
	}
	lineNo := 0
	sawMagic := false
	for rest := data; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		lineNo++
		if len(line) >= maxTextLine {
			return nil, fmt.Errorf("trace: %w", bufio.ErrTooLong)
		}
		f := fields{line: line}
		kind := f.next()
		if len(kind) == 0 {
			continue
		}
		if !sawMagic {
			if string(bytes.TrimSpace(line)) != textMagic {
				return nil, fmt.Errorf("trace: line %d: not a vppb log (missing %q)", lineNo, textMagic)
			}
			sawMagic = true
			continue
		}
		if kind[0] == '#' {
			continue
		}
		if err := d.record(kind, &f); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
	}
	if !sawMagic {
		return nil, fmt.Errorf("trace: empty input")
	}
	return d.log, nil
}

// byteKind classifies a byte for the field splitter: part of a field,
// an ASCII space (the ASCII part of unicode.IsSpace, which strings.Fields
// and strings.TrimSpace split and trim on), or the first byte of a
// multi-byte rune that must be decoded to tell.
type byteKind uint8

const (
	fieldByte byteKind = iota
	spaceByte
	runeByte
)

var byteKinds = func() (k [256]byteKind) {
	for _, c := range "\t\n\v\f\r " {
		k[c] = spaceByte
	}
	for c := utf8.RuneSelf; c < len(k); c++ {
		k[c] = runeByte
	}
	return k
}()

// fields iterates the whitespace-separated fields of one line exactly as
// strings.Fields splits them. A rune is decoded only at a byte >= 0x80;
// invalid UTF-8 decodes as one non-space byte, as it does there.
type fields struct {
	line []byte
	pos  int
}

// next returns the next field, or an empty slice at the end of the line.
func (f *fields) next() []byte {
	line, i := f.line, f.pos
	for i < len(line) {
		switch byteKinds[line[i]] {
		case spaceByte:
			i++
			continue
		case runeByte:
			if r, n := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
				i += n
				continue
			}
		}
		break
	}
	start := i
	for i < len(line) {
		switch byteKinds[line[i]] {
		case fieldByte:
			i++
			continue
		case runeByte:
			if r, n := utf8.DecodeRune(line[i:]); !unicode.IsSpace(r) {
				i += n
				continue
			}
		}
		break
	}
	f.pos = i
	return line[start:i]
}

// name unquotes a name field and interns the result: every repetition of
// a name in the log shares one string, copied out of the input.
func (d *textDecoder) name(raw []byte) string {
	if s, ok := d.names[string(raw)]; ok {
		return s
	}
	key := string(raw)
	s := unquote(key)
	d.names[key] = s
	return s
}

// record parses one line whose first field is kind; f holds the rest.
func (d *textDecoder) record(kind []byte, f *fields) error {
	l := d.log
	switch string(kind) {
	case "program":
		if v := f.next(); len(v) > 0 {
			l.Header.Program = d.name(v)
		}
	case "cpus", "lwps", "probecost", "start", "end":
		v := f.next()
		if len(v) == 0 {
			return fmt.Errorf("%s: missing value", kind)
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		switch string(kind) {
		case "cpus":
			l.Header.CPUs = int(n)
		case "lwps":
			l.Header.LWPs = int(n)
		case "probecost":
			l.Header.ProbeCost = vtime.Duration(n)
		case "start":
			l.Header.Start = vtime.Time(n)
		case "end":
			l.Header.End = vtime.Time(n)
		}
	case "thread":
		return d.thread(f)
	case "object":
		return d.object(f)
	case "event":
		return d.event(f)
	default:
		return fmt.Errorf("unknown record %q", kind)
	}
	return nil
}

func (d *textDecoder) thread(f *fields) error {
	v := f.next()
	if len(v) == 0 {
		return fmt.Errorf("thread: missing id")
	}
	id, err := strconv.ParseInt(string(v), 10, 32)
	if err != nil {
		return fmt.Errorf("thread id: %w", err)
	}
	t := ThreadInfo{ID: ThreadID(id), BoundCPU: -1}
	for fld := f.next(); len(fld) > 0; fld = f.next() {
		k, v, ok := bytes.Cut(fld, []byte("="))
		if !ok {
			return fmt.Errorf("thread: malformed field %q", fld)
		}
		switch string(k) {
		case "name":
			t.Name = d.name(v)
		case "func":
			t.Func = d.name(v)
		case "bound":
			t.Bound = string(v) == "1"
		case "boundcpu":
			n, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return err
			}
			t.BoundCPU = int32(n)
		case "prio":
			n, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return err
			}
			t.Prio = int32(n)
		default:
			return fmt.Errorf("thread: unknown field %q", k)
		}
	}
	d.log.Threads = append(d.log.Threads, t)
	return nil
}

func (d *textDecoder) object(f *fields) error {
	v := f.next()
	if len(v) == 0 {
		return fmt.Errorf("object: missing id")
	}
	id, err := strconv.ParseInt(string(v), 10, 32)
	if err != nil {
		return fmt.Errorf("object id: %w", err)
	}
	o := ObjectInfo{ID: ObjectID(id)}
	for fld := f.next(); len(fld) > 0; fld = f.next() {
		k, v, ok := bytes.Cut(fld, []byte("="))
		if !ok {
			return fmt.Errorf("object: malformed field %q", fld)
		}
		switch string(k) {
		case "kind":
			switch string(v) {
			case "mutex":
				o.Kind = ObjMutex
			case "sema":
				o.Kind = ObjSema
			case "cond":
				o.Kind = ObjCond
			case "rwlock":
				o.Kind = ObjRWLock
			case "device":
				o.Kind = ObjDevice
			default:
				return fmt.Errorf("object: unknown kind %q", v)
			}
		case "name":
			o.Name = d.name(v)
		case "count":
			n, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return err
			}
			o.InitCount = int32(n)
		default:
			return fmt.Errorf("object: unknown field %q", k)
		}
	}
	if o.Kind == ObjNone {
		return fmt.Errorf("object %d: missing kind", o.ID)
	}
	d.log.Objects = append(d.log.Objects, o)
	return nil
}

func (d *textDecoder) event(f *fields) error {
	// The five positional fields must all be present before any of them
	// is parsed.
	var pos [5][]byte
	for i := range pos {
		if pos[i] = f.next(); len(pos[i]) == 0 {
			return fmt.Errorf("event: want at least 6 fields, got %d", i+1)
		}
	}
	l := d.log
	l.Events = append(l.Events, Event{})
	ev := &l.Events[len(l.Events)-1]
	seq, err := strconv.ParseInt(string(pos[0]), 10, 64)
	if err != nil {
		return fmt.Errorf("event seq: %w", err)
	}
	ev.Seq = seq
	ts, err := strconv.ParseInt(string(pos[1]), 10, 64)
	if err != nil {
		return fmt.Errorf("event time: %w", err)
	}
	ev.Time = vtime.Time(ts)
	if pos[2][0] != 'T' {
		return fmt.Errorf("event thread: %q", pos[2])
	}
	tid, err := strconv.ParseInt(string(pos[2][1:]), 10, 32)
	if err != nil {
		return fmt.Errorf("event thread: %w", err)
	}
	ev.Thread = ThreadID(tid)
	switch string(pos[3]) {
	case "before":
		ev.Class = Before
	case "after":
		ev.Class = After
	default:
		return fmt.Errorf("event class: %q", pos[3])
	}
	call, ok := callByName(pos[4])
	if !ok {
		_, err := ParseCall(string(pos[4]))
		return err
	}
	ev.Call = call
	for fld := f.next(); len(fld) > 0; fld = f.next() {
		k, v, ok := bytes.Cut(fld, []byte("="))
		if !ok {
			return fmt.Errorf("event: malformed field %q", fld)
		}
		switch string(k) {
		case "obj":
			n, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return err
			}
			ev.Object = ObjectID(n)
		case "mutex":
			n, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return err
			}
			ev.Mutex = ObjectID(n)
		case "target":
			n, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return err
			}
			ev.Target = ThreadID(n)
		case "ok":
			ev.OK = string(v) == "1"
		case "timeout":
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return err
			}
			ev.Timeout = vtime.Duration(n)
		case "prio":
			n, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return err
			}
			ev.Prio = int32(n)
		case "loc":
			i := bytes.LastIndexByte(v, ':')
			if i < 0 {
				return fmt.Errorf("event loc: %q", v)
			}
			n, err := strconv.Atoi(string(v[i+1:]))
			if err != nil {
				return err
			}
			ev.Loc = source.Loc{File: d.name(v[:i]), Line: n}
		default:
			return fmt.Errorf("event: unknown field %q", k)
		}
	}
	return nil
}

// FormatPaper renders the log the way the paper's figure 2 lists Recorder
// output: one line per event, "<seconds> <thread> <call> <operand>", with
// completions shown as "ok <call>".
func FormatPaper(l *Log) string {
	var b strings.Builder
	for _, ev := range l.Events {
		name := l.ThreadName(ev.Thread)
		var what string
		switch {
		case ev.Class == After && ev.Call == CallThrJoin:
			what = fmt.Sprintf("ok thr_join %s", l.ThreadName(ev.Target))
		case ev.Class == After:
			what = fmt.Sprintf("ok %s%s", ev.Call, operand(l, ev))
		default:
			what = fmt.Sprintf("%s%s", ev.Call, operand(l, ev))
		}
		fmt.Fprintf(&b, "%-8s %-4s %s\n", ev.Time, name, what)
	}
	return b.String()
}

func operand(l *Log, ev Event) string {
	switch {
	case ev.Call == CallThrCreate && ev.Target != 0:
		return " " + l.ThreadName(ev.Target)
	case ev.Call == CallThrJoin:
		if ev.Target == 0 {
			return " <any>"
		}
		return " " + l.ThreadName(ev.Target)
	case ev.Object != 0:
		return " " + l.ObjectName(ev.Object)
	}
	return ""
}

// Binary encoding: a magic header, varint-encoded tables and events with
// time deltas. Strings are interned in a table to keep large logs small.

var binMagic = []byte("VPPBLOG1")

// AppendBinary appends the binary encoding of l to dst.
func AppendBinary(dst []byte, l *Log) []byte {
	e := binEncoder{buf: append(dst, binMagic...), strs: map[string]uint64{}}
	e.str(l.Header.Program)
	e.uv(uint64(l.Header.CPUs))
	e.uv(uint64(l.Header.LWPs))
	e.uv(uint64(l.Header.ProbeCost))
	e.uv(uint64(l.Header.Start))
	e.uv(uint64(l.Header.End))
	e.uv(uint64(len(l.Threads)))
	for _, t := range l.Threads {
		e.sv(int64(t.ID))
		e.str(t.Name)
		e.str(t.Func)
		e.uv(uint64(b2i(t.Bound)))
		e.sv(int64(t.BoundCPU))
		e.sv(int64(t.Prio))
	}
	e.uv(uint64(len(l.Objects)))
	for _, o := range l.Objects {
		e.sv(int64(o.ID))
		e.uv(uint64(o.Kind))
		e.str(o.Name)
		e.sv(int64(o.InitCount))
	}
	e.uv(uint64(len(l.Events)))
	var prevTime vtime.Time
	var prevSeq int64
	for _, ev := range l.Events {
		e.sv(ev.Seq - prevSeq)
		prevSeq = ev.Seq
		e.sv(int64(ev.Time - prevTime))
		prevTime = ev.Time
		e.sv(int64(ev.Thread))
		e.uv(uint64(ev.Class))
		e.uv(uint64(ev.Call))
		e.sv(int64(ev.Object))
		e.sv(int64(ev.Mutex))
		e.sv(int64(ev.Target))
		e.uv(uint64(b2i(ev.OK)))
		e.sv(int64(ev.Timeout))
		e.sv(int64(ev.Prio))
		e.str(ev.Loc.File)
		e.sv(int64(ev.Loc.Line))
	}
	return e.buf
}

// DecodeBinary parses a binary-format log.
func DecodeBinary(data []byte) (*Log, error) {
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != string(binMagic) {
		return nil, fmt.Errorf("trace: not a vppb binary log")
	}
	d := binDecoder{buf: data[len(binMagic):]}
	l := &Log{}
	l.Header.Program = d.str()
	l.Header.CPUs = int(d.uv())
	l.Header.LWPs = int(d.uv())
	l.Header.ProbeCost = vtime.Duration(d.uv())
	l.Header.Start = vtime.Time(d.uv())
	l.Header.End = vtime.Time(d.uv())
	nThreads := d.uv()
	if d.err == nil && nThreads > uint64(len(data)) {
		return nil, fmt.Errorf("trace: corrupt binary log: %d threads", nThreads)
	}
	l.Threads = presize[ThreadInfo](nThreads, len(d.buf)/minThreadBytes)
	for i := uint64(0); i < nThreads && d.err == nil; i++ {
		var t ThreadInfo
		t.ID = ThreadID(d.sv())
		t.Name = d.str()
		t.Func = d.str()
		t.Bound = d.uv() == 1
		t.BoundCPU = int32(d.sv())
		t.Prio = int32(d.sv())
		l.Threads = append(l.Threads, t)
	}
	nObjects := d.uv()
	if d.err == nil && nObjects > uint64(len(data)) {
		return nil, fmt.Errorf("trace: corrupt binary log: %d objects", nObjects)
	}
	l.Objects = presize[ObjectInfo](nObjects, len(d.buf)/minObjectBytes)
	for i := uint64(0); i < nObjects && d.err == nil; i++ {
		var o ObjectInfo
		o.ID = ObjectID(d.sv())
		o.Kind = ObjectKind(d.uv())
		o.Name = d.str()
		o.InitCount = int32(d.sv())
		l.Objects = append(l.Objects, o)
	}
	nEvents := d.uv()
	if d.err == nil && nEvents > uint64(len(data)) {
		return nil, fmt.Errorf("trace: corrupt binary log: %d events", nEvents)
	}
	l.Events = presize[Event](nEvents, len(d.buf)/minEventBytes)
	var prevTime vtime.Time
	var prevSeq int64
	for i := uint64(0); i < nEvents && d.err == nil; i++ {
		var ev Event
		prevSeq += d.sv()
		ev.Seq = prevSeq
		prevTime += vtime.Time(d.sv())
		ev.Time = prevTime
		ev.Thread = ThreadID(d.sv())
		ev.Class = EventClass(d.uv())
		ev.Call = Call(d.uv())
		ev.Object = ObjectID(d.sv())
		ev.Mutex = ObjectID(d.sv())
		ev.Target = ThreadID(d.sv())
		ev.OK = d.uv() == 1
		ev.Timeout = vtime.Duration(d.sv())
		ev.Prio = int32(d.sv())
		ev.Loc.File = d.str()
		ev.Loc.Line = int(d.sv())
		l.Events = append(l.Events, ev)
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: corrupt binary log: %w", d.err)
	}
	return l, nil
}

// The fewest bytes a record of each table can encode in: one per varint
// field, and one per string (a back-reference to the string table).
const (
	minThreadBytes = 6
	minObjectBytes = 4
	minEventBytes  = 13
)

// presize returns the slice a binary table of declared records decodes
// into. The declaration is untrusted, so the capacity is capped at what
// the remaining input could hold; a table that declares no records stays
// nil, as appending would leave it.
func presize[T any](declared uint64, fit int) []T {
	if declared == 0 {
		return nil
	}
	return make([]T, 0, min(declared, uint64(fit)))
}

type binEncoder struct {
	buf  []byte
	strs map[string]uint64
	next uint64
}

func (e *binEncoder) uv(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *binEncoder) sv(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

// str writes a string with interning: the first occurrence writes the
// bytes, later occurrences write only the table index.
func (e *binEncoder) str(s string) {
	if id, ok := e.strs[s]; ok {
		e.uv(id + 1)
		return
	}
	e.strs[s] = e.next
	e.next++
	e.uv(0)
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

type binDecoder struct {
	buf  []byte
	strs []string
	err  error
}

func (d *binDecoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *binDecoder) sv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *binDecoder) str() string {
	id := d.uv()
	if d.err != nil {
		return ""
	}
	if id > 0 {
		// Compare unconverted: a forged index above MaxInt would turn
		// negative as an int.
		if id-1 >= uint64(len(d.strs)) {
			d.err = fmt.Errorf("string index %d out of range", id-1)
			return ""
		}
		return d.strs[id-1]
	}
	n := d.uv()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("truncated string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	d.strs = append(d.strs, s)
	return s
}
