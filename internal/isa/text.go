package isa

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The textual assembly format is line oriented:
//
//	.program <name>
//	.memwords <n>
//	.data <name> <addr> <full|empty>
//	<value> <value> ...
//	.enddata
//	.segment <name>
//	.regcount <n0> <n1> ...
//	.word
//	<slot> <mnemonic[.sync]> [dest ...] <- [src ...] [@offset] [->target]
//	...
//
// Every operation line belongs to the most recent .word directive. The
// "<-" token separates destinations from sources unambiguously.

// WriteText serializes the program in assembly form.
func WriteText(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".program %s\n", p.Name)
	fmt.Fprintf(bw, ".memwords %d\n", p.MemWords)
	for _, d := range p.Data {
		state := "full"
		if !d.Full {
			state = "empty"
		}
		fmt.Fprintf(bw, ".data %s %d %s\n", d.Name, d.Addr, state)
		for i, v := range d.Values {
			if i > 0 {
				if i%8 == 0 {
					bw.WriteByte('\n')
				} else {
					bw.WriteByte(' ')
				}
			}
			bw.WriteString(v.String())
		}
		if len(d.Values) > 0 {
			bw.WriteByte('\n')
		}
		bw.WriteString(".enddata\n")
	}
	for _, seg := range p.Segments {
		fmt.Fprintf(bw, ".segment %s\n", seg.Name)
		if len(seg.RegCount) > 0 {
			fmt.Fprintf(bw, ".regcount")
			for _, n := range seg.RegCount {
				fmt.Fprintf(bw, " %d", n)
			}
			bw.WriteByte('\n')
		}
		for wi := range seg.Instrs {
			bw.WriteString(".word\n")
			for slot, op := range seg.Instrs[wi].Ops {
				if op == nil {
					continue
				}
				writeOpText(bw, slot, op)
			}
		}
	}
	return bw.Flush()
}

func writeOpText(w *bufio.Writer, slot int, op *Op) {
	fmt.Fprintf(w, "%d %s", slot, op.Code)
	if op.IsMemory() && op.Sync != SyncNone {
		fmt.Fprintf(w, ".%s", op.Sync)
	}
	for _, d := range op.Dests {
		fmt.Fprintf(w, " c%d.r%d", d.Cluster, d.Index)
	}
	w.WriteString(" <-")
	for _, s := range op.Srcs {
		if s.Kind == OperandImm {
			fmt.Fprintf(w, " #%s", s.Imm)
		} else {
			fmt.Fprintf(w, " c%d.r%d", s.Reg.Cluster, s.Reg.Index)
		}
	}
	if op.IsMemory() {
		fmt.Fprintf(w, " @%d", op.Offset)
	}
	switch op.Code {
	case OpJmp, OpBt, OpBf, OpFork:
		fmt.Fprintf(w, " ->%d", op.Target)
	}
	w.WriteByte('\n')
}

// ParseText parses a program previously written by WriteText.
func ParseText(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	p := &Program{}
	var seg *ThreadCode
	var data *DataSegment
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case data != nil && fields[0] != ".enddata":
			for _, f := range fields {
				v, err := ParseValue(f)
				if err != nil {
					return nil, fmt.Errorf("isa: line %d: %w", lineno, err)
				}
				data.Values = append(data.Values, v)
			}
		case fields[0] == ".program":
			if len(fields) > 1 {
				p.Name = fields[1]
			}
		case (fields[0] == ".memwords" || fields[0] == ".segment") && len(fields) != 2:
			return nil, fmt.Errorf("isa: line %d: %s wants one argument", lineno, fields[0])
		case fields[0] == ".memwords":
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: bad .memwords: %w", lineno, err)
			}
			p.MemWords = n
		case fields[0] == ".data":
			if len(fields) != 4 {
				return nil, fmt.Errorf("isa: line %d: .data wants name addr state", lineno)
			}
			addr, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: bad data address: %w", lineno, err)
			}
			p.Data = append(p.Data, DataSegment{Name: fields[1], Addr: addr, Full: fields[3] == "full"})
			data = &p.Data[len(p.Data)-1]
		case fields[0] == ".enddata":
			data = nil
		case fields[0] == ".segment":
			p.Segments = append(p.Segments, &ThreadCode{Name: fields[1]})
			seg = p.Segments[len(p.Segments)-1]
		case fields[0] == ".regcount":
			if seg == nil {
				return nil, fmt.Errorf("isa: line %d: .regcount outside segment", lineno)
			}
			for _, f := range fields[1:] {
				n, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("isa: line %d: bad regcount: %w", lineno, err)
				}
				seg.RegCount = append(seg.RegCount, n)
			}
		case fields[0] == ".word":
			if seg == nil {
				return nil, fmt.Errorf("isa: line %d: .word outside segment", lineno)
			}
			seg.Instrs = append(seg.Instrs, Instruction{})
			seg.ScheduleLen = len(seg.Instrs)
		default:
			if seg == nil || len(seg.Instrs) == 0 {
				return nil, fmt.Errorf("isa: line %d: operation outside .word", lineno)
			}
			slot, op, err := parseOpLine(fields)
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %w", lineno, err)
			}
			word := &seg.Instrs[len(seg.Instrs)-1]
			for len(word.Ops) <= slot {
				word.Ops = append(word.Ops, nil)
			}
			if word.Ops[slot] != nil {
				return nil, fmt.Errorf("isa: line %d: slot %d already occupied", lineno, slot)
			}
			op.Unit = slot
			word.Ops[slot] = op
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.Segments) == 0 {
		return nil, fmt.Errorf("isa: no code segments")
	}
	return p, nil
}

// maxSlot bounds a parsed unit slot far above any machine's unit count
// (Program.Validate enforces the real one), so a bad slot cannot make
// the parser allocate without bound.
const maxSlot = 1 << 12

func parseOpLine(fields []string) (int, *Op, error) {
	if len(fields) < 2 {
		return 0, nil, fmt.Errorf("malformed operation line")
	}
	slot, err := strconv.Atoi(fields[0])
	if err != nil || slot < 0 || slot >= maxSlot {
		return 0, nil, fmt.Errorf("bad slot %q", fields[0])
	}
	mnem := fields[1]
	var sync SyncFlavor
	if dot := strings.IndexByte(mnem, '.'); dot >= 0 {
		sync, err = ParseSyncFlavor(mnem[dot+1:])
		if err != nil {
			return 0, nil, err
		}
		mnem = mnem[:dot]
	}
	code, err := ParseOpcode(mnem)
	if err != nil {
		return 0, nil, err
	}
	op := &Op{Code: code, Sync: sync}
	inSrcs := false
	sawArrow := false
	for _, tok := range fields[2:] {
		switch {
		case tok == "<-":
			inSrcs = true
			sawArrow = true
		case strings.HasPrefix(tok, "->"):
			t, err := strconv.Atoi(tok[2:])
			if err != nil {
				return 0, nil, fmt.Errorf("bad target %q", tok)
			}
			op.Target = t
		case strings.HasPrefix(tok, "@"):
			off, err := strconv.ParseInt(tok[1:], 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("bad offset %q", tok)
			}
			op.Offset = off
		case strings.HasPrefix(tok, "#"):
			if !inSrcs {
				return 0, nil, fmt.Errorf("immediate %q before <-", tok)
			}
			v, err := ParseValue(tok[1:])
			if err != nil {
				return 0, nil, err
			}
			op.Srcs = append(op.Srcs, Imm(v))
		default:
			reg, err := parseRegToken(tok)
			if err != nil {
				return 0, nil, err
			}
			if inSrcs {
				op.Srcs = append(op.Srcs, Reg(reg))
			} else {
				op.Dests = append(op.Dests, reg)
			}
		}
	}
	if !sawArrow {
		return 0, nil, fmt.Errorf("operation line missing <-")
	}
	return slot, op, nil
}

func parseRegToken(tok string) (RegRef, error) {
	rest, ok := strings.CutPrefix(tok, "c")
	if !ok {
		return RegRef{}, fmt.Errorf("bad register %q", tok)
	}
	cs, rs, ok := strings.Cut(rest, ".r")
	if !ok {
		return RegRef{}, fmt.Errorf("bad register %q", tok)
	}
	c, err1 := strconv.Atoi(cs)
	r, err2 := strconv.Atoi(rs)
	if err1 != nil || err2 != nil || c < 0 || r < 0 {
		return RegRef{}, fmt.Errorf("bad register %q", tok)
	}
	return RegRef{Cluster: c, Index: r}, nil
}
