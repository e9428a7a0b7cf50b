package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders every registered family in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, then one sample line
// per series, families in name order and series in label order, so the
// output is deterministic for a fixed registry state.
func (r *Registry) WriteText(w io.Writer) error {
	var buf []byte
	for _, f := range r.sortedFamilies() {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(f.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')

		samples := append([]*sample(nil), f.samples...)
		sort.Slice(samples, func(i, j int) bool {
			return labelKey(samples[i].labels) < labelKey(samples[j].labels)
		})
		for _, s := range samples {
			switch {
			case s.hist != nil:
				buf = appendHistogram(buf, f.name, s)
			default:
				buf = appendScalar(buf, f.name, s)
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func appendScalar(buf []byte, name string, s *sample) []byte {
	var v float64
	switch {
	case s.fn != nil:
		v = s.fn()
	case s.counter != nil:
		v = float64(s.counter.Value())
		if s.scale != 0 {
			v *= s.scale
		}
	case s.gauge != nil:
		v = float64(s.gauge.Value())
	}
	buf = appendSeries(buf, name, s.labels, nil)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	return append(buf, '\n')
}

func appendHistogram(buf []byte, name string, s *sample) []byte {
	snap, count, sum := s.hist.snapshot()
	scale := s.hist.scale
	var cum uint64
	for i, c := range snap {
		if c == 0 {
			continue
		}
		cum += c
		le := strconv.FormatFloat(float64(bucketUpper(i))*scale, 'g', -1, 64)
		buf = appendSeries(buf, name+"_bucket", s.labels, &Label{Name: "le", Value: le})
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = appendSeries(buf, name+"_bucket", s.labels, &Label{Name: "le", Value: "+Inf"})
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, count, 10)
	buf = append(buf, '\n')
	buf = appendSeries(buf, name+"_sum", s.labels, nil)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, sum, 'g', -1, 64)
	buf = append(buf, '\n')
	buf = appendSeries(buf, name+"_count", s.labels, nil)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, count, 10)
	return append(buf, '\n')
}

// appendSeries renders name{labels,extra} without the value.
func appendSeries(buf []byte, name string, labels []Label, extra *Label) []byte {
	buf = append(buf, name...)
	if len(labels) == 0 && extra == nil {
		return buf
	}
	buf = append(buf, '{')
	first := true
	emit := func(l Label) {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, l.Name...)
		buf = append(buf, '=', '"')
		buf = append(buf, escapeLabel(l.Value)...)
		buf = append(buf, '"')
	}
	for _, l := range labels {
		emit(l)
	}
	if extra != nil {
		emit(*extra)
	}
	return append(buf, '}')
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// CheckText is a lite parser for the exposition format, used by tests to
// assert that a /metrics body is well-formed: every sample
// belongs to a declared family, values parse as floats, and histogram
// families carry +Inf/_sum/_count with non-decreasing buckets. Returns the
// set of family names on success.
func CheckText(body []byte) (map[string]string, error) {
	families := make(map[string]string) // name -> kind
	lastCum := make(map[string]uint64)  // histogram series (sans le) -> last cumulative
	for ln, line := range strings.Split(string(body), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unknown kind %q", lineNo, kind)
			}
			if _, dup := families[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			families[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("line %d: no value: %q", lineNo, line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, value, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("line %d: unterminated labels: %q", lineNo, series)
			}
			name = series[:i]
		}
		fam := name
		if kind, ok := families[name]; !ok || kind != "histogram" {
			// histogram samples appear under name_bucket/_sum/_count
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && families[base] == "histogram" {
					fam = base
					break
				}
			}
		}
		kind, ok := families[fam]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no TYPE header", lineNo, name)
		}
		if kind == "histogram" && strings.HasSuffix(name, "_bucket") {
			cum, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bucket value %q not a count", lineNo, value)
			}
			key := stripLabel(series, "le")
			if cum < lastCum[key] {
				return nil, fmt.Errorf("line %d: bucket counts decrease for %s", lineNo, key)
			}
			lastCum[key] = cum
			if strings.Contains(series, `le="+Inf"`) {
				delete(lastCum, key)
			}
		}
	}
	for key := range lastCum {
		return nil, fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", key)
	}
	return families, nil
}

// stripLabel removes one name="..." pair from a series string so bucket
// lines of the same histogram series share a map key.
func stripLabel(series, name string) string {
	i := strings.Index(series, name+`="`)
	if i < 0 {
		return series
	}
	j := strings.Index(series[i+len(name)+2:], `"`)
	if j < 0 {
		return series
	}
	out := series[:i] + series[i+len(name)+2+j+1:]
	out = strings.ReplaceAll(out, "{,", "{")
	out = strings.ReplaceAll(out, ",}", "}")
	out = strings.ReplaceAll(out, "{}", "")
	return out
}
