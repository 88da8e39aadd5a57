package buchi

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"contractdb/internal/vocab"
)

// The textual format is line-oriented and diff-friendly:
//
//	ba states=4 init=0 final=2,3
//	0 -> 1 [purchase & !use]
//	1 -> 1 [true]
//	...
//
// Event names are resolved against (and interned into) the vocabulary
// supplied at decode time, so a database dump and its vocabulary
// travel together.

// Encode writes the automaton to w in the textual format.
func (a *BA) Encode(w io.Writer, v *vocab.Vocabulary) error {
	finals := make([]string, 0, len(a.Final))
	for s, f := range a.Final {
		if f {
			finals = append(finals, strconv.Itoa(s))
		}
	}
	if _, err := fmt.Fprintf(w, "ba states=%d init=%d final=%s\n",
		a.NumStates(), a.Init, strings.Join(finals, ",")); err != nil {
		return err
	}
	for s := range a.NumStates() {
		for e := range a.Edges(StateID(s)) {
			if _, err := fmt.Fprintf(w, "%d -> %d [%s]\n", s, e.To, e.Label.Format(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// EncodeString returns the textual encoding as a string.
func (a *BA) EncodeString(v *vocab.Vocabulary) string {
	var b strings.Builder
	// strings.Builder never fails.
	_ = a.Encode(&b, v)
	return b.String()
}

// Decode reads one automaton in the textual format. It consumes lines
// until the edge list ends (a non-edge line or EOF).
func Decode(r *bufio.Reader, v *vocab.Vocabulary) (*BA, error) {
	header, err := r.ReadString('\n')
	if err != nil && header == "" {
		return nil, err
	}
	header = strings.TrimSpace(header)
	var states, init int
	var finalList string
	if n, err := fmt.Sscanf(header, "ba states=%d init=%d final=%s", &states, &init, &finalList); err != nil || n < 2 {
		// final= may be empty, in which case Sscanf stops at 2 fields.
		if n < 2 {
			return nil, fmt.Errorf("buchi: bad header %q", header)
		}
	}
	if states <= 0 {
		return nil, fmt.Errorf("buchi: header %q: need at least one state", header)
	}
	b := NewBuilder(states)
	if init < 0 || init >= states {
		return nil, fmt.Errorf("buchi: header %q: init out of range", header)
	}
	b.Init = StateID(init)
	if finalList != "" {
		for _, part := range strings.Split(finalList, ",") {
			s, err := strconv.Atoi(part)
			if err != nil || s < 0 || s >= states {
				return nil, fmt.Errorf("buchi: header %q: bad final state %q", header, part)
			}
			b.SetFinal(StateID(s))
		}
	}
	for {
		peek, err := r.Peek(1)
		if err != nil {
			break // EOF ends the edge list
		}
		if peek[0] < '0' || peek[0] > '9' {
			break // next automaton or other content
		}
		line, readErr := r.ReadString('\n')
		if line = strings.TrimSpace(line); line != "" {
			if err := decodeEdge(b, line, v); err != nil {
				return nil, err
			}
		}
		if readErr != nil {
			break
		}
	}
	return b.BA(), nil
}

// DecodeString parses a single automaton from its textual encoding.
func DecodeString(s string, v *vocab.Vocabulary) (*BA, error) {
	return Decode(bufio.NewReader(strings.NewReader(s)), v)
}

func decodeEdge(b *Builder, line string, v *vocab.Vocabulary) error {
	arrow := strings.Index(line, "->")
	open := strings.Index(line, "[")
	if arrow < 0 || open < 0 || !strings.HasSuffix(line, "]") {
		return fmt.Errorf("buchi: bad edge line %q", line)
	}
	from, err := strconv.Atoi(strings.TrimSpace(line[:arrow]))
	if err != nil {
		return fmt.Errorf("buchi: bad edge line %q: %v", line, err)
	}
	to, err := strconv.Atoi(strings.TrimSpace(line[arrow+2 : open]))
	if err != nil {
		return fmt.Errorf("buchi: bad edge line %q: %v", line, err)
	}
	if n := len(b.Final); from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("buchi: edge line %q: state out of range", line)
	}
	label, err := ParseLabel(v, line[open+1:len(line)-1])
	if err != nil {
		return err
	}
	b.AddEdge(StateID(from), label, StateID(to))
	return nil
}

// Dot renders the automaton in Graphviz dot syntax for debugging.
func (a *BA) Dot(v *vocab.Vocabulary, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	fmt.Fprintf(&b, "  hidden [shape=point]; hidden -> s%d;\n", a.Init)
	for s := range a.Final {
		shape := "circle"
		if a.Final[s] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  s%d [shape=%s,label=\"%d\"];\n", s, shape, s)
	}
	for s := range a.NumStates() {
		for e := range a.Edges(StateID(s)) {
			fmt.Fprintf(&b, "  s%d -> s%d [label=%q];\n", s, e.To, e.Label.Format(v))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
