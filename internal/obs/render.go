package obs

import (
	"fmt"
	"strings"
	"time"
)

// RenderProfile renders a query profile as the EXPLAIN ANALYZE text block:
// a phase-timing header followed by the operator tree annotated with
// estimated vs. actual cardinalities and (on timed runs) per-operator self
// time.
func RenderProfile(q *QueryProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query (%s): %s\n", q.Lang, strings.TrimSpace(q.Query))
	fmt.Fprintf(&b, "Total: %v", q.Total.Round(time.Microsecond))
	if q.Workers > 1 {
		fmt.Fprintf(&b, "  (%d workers, %d morsels)", q.Workers, q.Morsels)
	}
	if q.PlanCached {
		b.WriteString("  (plan cached)")
	}
	b.WriteString("\n")
	for _, s := range q.Phases {
		fmt.Fprintf(&b, "  %-8s %v\n", s.Name+":", s.Dur.Round(time.Microsecond))
		for _, c := range s.Children {
			fmt.Fprintf(&b, "    %-20s %v\n", c.Name, c.Dur.Round(time.Microsecond))
		}
	}
	if q.Err != "" {
		fmt.Fprintf(&b, "Error: %s\n", q.Err)
	}
	if q.Root != nil {
		b.WriteString("Plan:\n")
		renderOp(&b, q.Root, 1, q.Timed)
	}
	return b.String()
}

func renderOp(b *strings.Builder, op *OpProfile, depth int, timed bool) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(op.Op)
	fmt.Fprintf(b, "  (rows=%d", op.Rows)
	if op.EstRows > 0 {
		fmt.Fprintf(b, " est=%.0f", op.EstRows)
	}
	if op.Batches > 0 {
		fmt.Fprintf(b, " batches=%d", op.Batches)
	}
	if timed {
		fmt.Fprintf(b, " time=%v", time.Duration(op.SelfNanos).Round(time.Microsecond))
	}
	b.WriteString(")")
	for _, c := range sortCounters(op.Extra) {
		switch {
		case strings.HasSuffix(c.Name, "_nanos"):
			fmt.Fprintf(b, " %s=%v", strings.TrimSuffix(c.Name, "_nanos"),
				time.Duration(c.Value).Round(time.Microsecond))
		default:
			fmt.Fprintf(b, " %s=%d", c.Name, c.Value)
		}
	}
	b.WriteString("\n")
	for _, c := range op.Children {
		renderOp(b, c, depth+1, timed)
	}
}
