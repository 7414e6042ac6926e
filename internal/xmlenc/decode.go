package xmlenc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrSyntax is returned for input outside the spec.md grammar.
var ErrSyntax = errors.New("xmlenc: syntax error")

// Decoder streams records back out of the XML dialect. It is strictly
// line-oriented per the specification, holding one record in memory at a
// time, which is what makes analysis of huge datasets cheap.
type Decoder struct {
	s     *bufio.Scanner
	meta  map[string]string
	done  bool
	count uint64
	line  int

	// attrs is the tag parser's scratch, reused for every tag.
	attrs []attr
	// names interns op and srv values: a dataset has a handful of each,
	// so NextInto stores them without allocating per record.
	names map[string]string
}

// maxNames bounds the intern table, so input with ever-new op or srv
// values costs an allocation per record rather than unbounded memory.
const maxNames = 256

// NewDecoder parses the document header and positions the decoder before
// the first record.
func NewDecoder(r io.Reader) (*Decoder, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<24)
	d := &Decoder{s: s, meta: map[string]string{}, names: map[string]string{}}

	// Prologue: optional xml declaration, then the root element.
	line, err := d.nextLine()
	if err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrSyntax)
	}
	if bytes.HasPrefix(line, []byte("<?xml")) {
		line, err = d.nextLine()
		if err != nil {
			return nil, fmt.Errorf("%w: missing root element", ErrSyntax)
		}
	}
	name, self, rest, err := d.parseTag(line)
	if err != nil || string(name) != "edtrace" || self || len(rest) != 0 {
		return nil, fmt.Errorf("%w: bad root element %q", ErrSyntax, line)
	}
	for _, a := range d.attrs {
		d.meta[string(a.key)] = text(a.val)
	}
	if d.meta["version"] != "1.0" {
		return nil, fmt.Errorf("%w: unsupported version %q", ErrSyntax, d.meta["version"])
	}
	return d, nil
}

// Meta returns the root element attributes (including "version").
func (d *Decoder) Meta() map[string]string { return d.meta }

// Count reports records decoded so far.
func (d *Decoder) Count() uint64 { return d.count }

// nextLine returns the next non-blank line, trimmed. The slice aliases
// the scanner's buffer and is valid until the following call.
func (d *Decoder) nextLine() ([]byte, error) {
	for d.s.Scan() {
		d.line++
		if line := bytes.TrimSpace(d.s.Bytes()); len(line) != 0 {
			return line, nil
		}
	}
	if err := d.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Next returns the next record, or io.EOF after the closing root tag.
// Every call returns a fresh record the caller may keep.
func (d *Decoder) Next() (*Record, error) {
	rec := new(Record)
	if err := d.NextInto(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// NextInto decodes the next record into rec, or returns io.EOF after the
// closing root tag. It overwrites every field of rec and reuses the
// capacity of its slices, so a reader that recycles one record decodes
// records without allocating them; such a reader must not keep the
// record or its slices past the next call (Clone what must survive).
// The strings stored in rec never alias the decoder's buffers: op and
// srv values are interned, hashes are allocated.
func (d *Decoder) NextInto(rec *Record) error {
	if d.done {
		return io.EOF
	}
	line, err := d.nextLine()
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("%w: missing </edtrace>", ErrSyntax)
		}
		return err
	}
	if string(line) == "</edtrace>" {
		d.done = true
		return io.EOF
	}
	rec.Reset()
	if err := d.parseRecord(line, rec); err != nil {
		if rerr := d.s.Err(); rerr != nil {
			return rerr // the line was cut short by a failed read
		}
		return fmt.Errorf("line %d: %w", d.line, err)
	}
	d.count++
	return nil
}

// attr is one parsed attribute; val is still entity-escaped.
type attr struct {
	key, val []byte
}

// parseTag parses one tag at the start of s into its element name and
// d.attrs, reporting whether it was self-closing and the remainder of s.
func (d *Decoder) parseTag(s []byte) (name []byte, selfClosing bool, rest []byte, err error) {
	d.attrs = d.attrs[:0]
	if len(s) < 2 || s[0] != '<' {
		return nil, false, nil, fmt.Errorf("%w: expected tag at %q", ErrSyntax, trunc(s))
	}
	i := 1
	for i < len(s) && isNameByte(s[i]) {
		i++
	}
	if i == 1 {
		return nil, false, nil, fmt.Errorf("%w: empty tag name at %q", ErrSyntax, trunc(s))
	}
	name = s[1:i]
	for {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i >= len(s) {
			return nil, false, nil, fmt.Errorf("%w: unterminated tag <%s", ErrSyntax, name)
		}
		if s[i] == '/' {
			if i+1 >= len(s) || s[i+1] != '>' {
				return nil, false, nil, fmt.Errorf("%w: bad self-close in <%s", ErrSyntax, name)
			}
			return name, true, s[i+2:], nil
		}
		if s[i] == '>' {
			return name, false, s[i+1:], nil
		}
		// attribute: name="value"
		j := i
		for j < len(s) && isNameByte(s[j]) {
			j++
		}
		if j == i || j >= len(s) || s[j] != '=' || j+1 >= len(s) || s[j+1] != '"' {
			return nil, false, nil, fmt.Errorf("%w: bad attribute in <%s> at %q", ErrSyntax, name, trunc(s[i:]))
		}
		k := j + 2
		for k < len(s) && s[k] != '"' {
			k++
		}
		if k >= len(s) {
			return nil, false, nil, fmt.Errorf("%w: unterminated attribute value in <%s>", ErrSyntax, name)
		}
		d.attrs = append(d.attrs, attr{key: s[i:j], val: s[j+2 : k]})
		i = k + 1
	}
}

// get returns the value of the last parsed tag's attribute key.
func (d *Decoder) get(key string) ([]byte, bool) {
	for _, a := range d.attrs {
		if string(a.key) == key {
			return a.val, true
		}
	}
	return nil, false
}

// intern returns raw's unescaped value, shared between records.
func (d *Decoder) intern(raw []byte) string {
	if s, ok := d.names[string(raw)]; ok {
		return s
	}
	s := text(raw)
	if len(d.names) < maxNames {
		d.names[string(raw)] = s
	}
	return s
}

// text returns an attribute value unescaped, as a fresh string.
func text(raw []byte) string {
	if bytes.IndexByte(raw, '&') < 0 {
		return string(raw)
	}
	return unescape(string(raw))
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

func trunc(s []byte) string {
	if len(s) > 32 {
		return string(s[:32]) + "..."
	}
	return string(s)
}

func unescape(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '&' {
			b.WriteByte(s[i])
			continue
		}
		rest := s[i:]
		switch {
		case strings.HasPrefix(rest, "&amp;"):
			b.WriteByte('&')
			i += 4
		case strings.HasPrefix(rest, "&lt;"):
			b.WriteByte('<')
			i += 3
		case strings.HasPrefix(rest, "&gt;"):
			b.WriteByte('>')
			i += 3
		case strings.HasPrefix(rest, "&quot;"):
			b.WriteByte('"')
			i += 5
		case strings.HasPrefix(rest, "&apos;"):
			b.WriteByte('\'')
			i += 5
		default:
			b.WriteByte('&')
		}
	}
	return b.String()
}

// parseRecord parses one full <r> line into rec, which must be Reset.
func (d *Decoder) parseRecord(line []byte, rec *Record) error {
	name, self, rest, err := d.parseTag(line)
	if err != nil {
		return err
	}
	if string(name) != "r" {
		return fmt.Errorf("%w: expected <r>, got <%s>", ErrSyntax, name)
	}
	for _, a := range d.attrs {
		switch string(a.key) {
		case "t":
			rec.T, err = strconv.ParseFloat(string(a.val), 64)
		case "c":
			rec.Client, err = parseU32(a.val)
		case "op":
			// The encoder writes op unescaped, so only a name
			// round-trips.
			if isName(a.val) {
				rec.Op = d.intern(a.val)
			} else {
				err = ErrSyntax
			}
		case "dir":
			switch string(a.val) {
			case "q":
				rec.Dir = DirQuery
			case "a":
				rec.Dir = DirAnswer
			default:
				err = ErrSyntax
			}
		case "srv":
			rec.Server = d.intern(a.val)
		case "minkb":
			rec.MinKB, err = strconv.ParseUint(string(a.val), 10, 64)
		case "maxkb":
			rec.MaxKB, err = strconv.ParseUint(string(a.val), 10, 64)
		case "users":
			rec.Users, err = parseU32(a.val)
		case "files":
			rec.FilesCount, err = parseU32(a.val)
		case "n":
			rec.Accepted, err = parseU32(a.val)
		default:
			return fmt.Errorf("%w: unknown attribute %q on <r>", ErrSyntax, a.key)
		}
		if err != nil {
			return fmt.Errorf("%w: attribute %s=%q", ErrSyntax, a.key, a.val)
		}
	}
	if self {
		if len(rest) != 0 {
			return fmt.Errorf("%w: trailing content %q", ErrSyntax, trunc(rest))
		}
		return nil
	}
	// Children until </r>.
	for {
		if bytes.HasPrefix(rest, []byte("</r>")) {
			if len(rest) != len("</r>") {
				return fmt.Errorf("%w: trailing content %q", ErrSyntax, trunc(rest))
			}
			return nil
		}
		var cname []byte
		var cself bool
		cname, cself, rest, err = d.parseTag(rest)
		if err != nil {
			return err
		}
		if !cself {
			return fmt.Errorf("%w: child <%s> must be self-closing", ErrSyntax, cname)
		}
		if err := d.applyChild(rec, cname); err != nil {
			return err
		}
	}
}

// applyChild adds the child element just parsed (its attributes are in
// d.attrs) to rec.
func (d *Decoder) applyChild(rec *Record, name []byte) error {
	switch string(name) {
	case "f":
		ids, ok := d.get("id")
		if !ok {
			return fmt.Errorf("%w: <f> without id", ErrSyntax)
		}
		id, err := parseU32(ids)
		if err != nil {
			return fmt.Errorf("%w: <f id=%q>", ErrSyntax, ids)
		}
		fi := FileInfo{ID: id}
		if s, ok := d.get("s"); ok {
			fi.SizeKB, err = strconv.ParseUint(string(s), 10, 64)
			if err != nil {
				return fmt.Errorf("%w: <f s=%q>", ErrSyntax, s)
			}
		}
		n, _ := d.get("n")
		fi.NameHash = text(n)
		ty, _ := d.get("ty")
		fi.TypeHash = text(ty)
		rec.Files = append(rec.Files, fi)
	case "fr":
		ids, ok := d.get("id")
		if !ok {
			return fmt.Errorf("%w: <fr> without id", ErrSyntax)
		}
		id, err := parseU32(ids)
		if err != nil {
			return fmt.Errorf("%w: <fr id=%q>", ErrSyntax, ids)
		}
		rec.FileRefs = append(rec.FileRefs, id)
	case "s":
		cs, ok := d.get("c")
		if !ok {
			return fmt.Errorf("%w: <s> without c", ErrSyntax)
		}
		c, err := parseU32(cs)
		if err != nil {
			return fmt.Errorf("%w: <s c=%q>", ErrSyntax, cs)
		}
		rec.Sources = append(rec.Sources, c)
	case "k":
		h, ok := d.get("h")
		if !ok {
			return fmt.Errorf("%w: <k> without h", ErrSyntax)
		}
		rec.Keywords = append(rec.Keywords, text(h))
	default:
		return fmt.Errorf("%w: unknown child <%s>", ErrSyntax, name)
	}
	return nil
}

func isName(b []byte) bool {
	for _, c := range b {
		if !isNameByte(c) {
			return false
		}
	}
	return true
}

func parseU32(b []byte) (uint32, error) {
	v, err := strconv.ParseUint(string(b), 10, 32)
	return uint32(v), err
}
