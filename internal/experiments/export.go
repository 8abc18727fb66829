package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/lisa-go/lisa/internal/visual"
)

// jsonComparison is the machine-readable form of a Comparison, for
// downstream plotting (the paper artifact ships result text files plus a
// plotting script; this is the equivalent).
type jsonComparison struct {
	Label   string                `json:"label"`
	Arch    string                `json:"arch"`
	Methods []Method              `json:"methods"`
	Rows    []jsonComparisonRow   `json:"rows"`
	Summary map[Method]jsonMethod `json:"summary"`
}

type jsonComparisonRow struct {
	Kernel  string                `json:"kernel"`
	Results map[Method]jsonResult `json:"results"`
}

type jsonResult struct {
	OK          bool          `json:"ok"`
	II          int           `json:"ii"`
	RoutingCost int           `json:"routingCost,omitempty"`
	Moves       int           `json:"moves,omitempty"`
	Duration    time.Duration `json:"durationNs"`
}

type jsonMethod struct {
	Mapped int `json:"mapped"`
}

// WriteJSON serializes a comparison.
func (cmp *Comparison) WriteJSON(w io.Writer) error {
	out := jsonComparison{
		Label:   cmp.Label,
		Arch:    cmp.Arch.Name(),
		Methods: cmp.Methods,
		Summary: map[Method]jsonMethod{},
	}
	for _, r := range cmp.Rows {
		row := jsonComparisonRow{Kernel: r.Kernel, Results: map[Method]jsonResult{}}
		for _, m := range cmp.Methods {
			res, ok := r.Results[m]
			if !ok {
				continue
			}
			row.Results[m] = jsonResult{
				OK: res.OK, II: res.II, RoutingCost: res.RoutingCost,
				Moves: res.Moves, Duration: res.Duration,
			}
			if res.OK {
				s := out.Summary[m]
				s.Mapped++
				out.Summary[m] = s
			}
		}
		out.Rows = append(out.Rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// WriteSVG renders a comparison as the paper-style grouped bar chart
// (II per kernel per method; missing bars mean "cannot map").
func (cmp *Comparison) WriteSVG(w io.Writer) error {
	var cats []string
	for _, r := range cmp.Rows {
		cats = append(cats, r.Kernel)
	}
	var series []visual.Series
	for _, m := range cmp.Methods {
		s := visual.Series{Name: string(m), Values: map[string]float64{}}
		for _, r := range cmp.Rows {
			if res := r.Results[m]; res.OK {
				s.Values[r.Kernel] = float64(res.II)
			}
		}
		series = append(series, s)
	}
	title := fmt.Sprintf("%s — %s (II, lower is better; x = cannot map)", cmp.Label, cmp.Arch.Name())
	return visual.WriteBarChart(w, title, "II", cats, series)
}
