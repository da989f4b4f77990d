package regress

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/profile"
)

// Tolerances bounds the drift a comparison accepts before flagging a
// property.  Zero fields take the defaults below.
type Tolerances struct {
	// RelWait is the accepted relative waiting-time drift (default 2%).
	RelWait float64
	// AbsWait is the absolute waiting-time floor in seconds: drifts
	// smaller than this never count, whatever the relative change
	// (default 1 µs).  It keeps near-zero baselines from amplifying
	// noise into huge relative drifts.
	AbsWait float64
	// OutlierDist is the accepted normalized wait-vector distance
	// between the per-location distributions (default 0.05).  The
	// vectors are normalized to unit sum, so the distance measures a
	// change in the *shape* of the imbalance — which locations wait —
	// independent of its magnitude (similarity-analysis style).
	OutlierDist float64
}

// WithDefaults returns t with every unset field at its default, as
// Compare applies and records them in Diff.Tol.
func (t Tolerances) WithDefaults() Tolerances {
	if t.RelWait <= 0 {
		t.RelWait = 0.02
	}
	if t.AbsWait <= 0 {
		t.AbsWait = 1e-6
	}
	if t.OutlierDist <= 0 {
		t.OutlierDist = 0.05
	}
	return t
}

// PropertyDelta is the comparison result for one property.
type PropertyDelta struct {
	Name string
	Info bool
	// BaseWait/CurWait are the two waiting times (0 when absent).
	BaseWait, CurWait         float64
	BaseSeverity, CurSeverity float64
	// AbsDrift is CurWait-BaseWait; RelDrift is AbsDrift/BaseWait
	// (0 when the base is 0).
	AbsDrift, RelDrift float64
	// Appeared/Disappeared record significance flips — the positive/
	// negative correctness changes of the test suite's known severities.
	Appeared, Disappeared bool
	// WaitDrifted records drift beyond both tolerance bounds.
	WaitDrifted bool
	// Distance is the normalized wait-vector distance between the two
	// per-location distributions; ShapeShifted marks it over tolerance.
	Distance     float64
	ShapeShifted bool
	// WorstLocation is the location with the largest absolute wait
	// change ("rank.thread"), and WorstDelta that change in seconds.
	WorstLocation string
	WorstDelta    float64
}

// Regressed reports whether this delta violates the tolerances.
func (d *PropertyDelta) Regressed() bool {
	return d.Appeared || d.Disappeared || d.WaitDrifted || d.ShapeShifted
}

// status renders the delta's verdict for reports.
func (d *PropertyDelta) status() string {
	var flags []string
	if d.Appeared {
		flags = append(flags, "APPEARED")
	}
	if d.Disappeared {
		flags = append(flags, "DISAPPEARED")
	}
	if d.WaitDrifted {
		flags = append(flags, "DRIFT")
	}
	if d.ShapeShifted {
		flags = append(flags, "SHAPE")
	}
	if len(flags) == 0 {
		return "ok"
	}
	return strings.Join(flags, "+")
}

// Diff is the full comparison of two profiles of one experiment.
type Diff struct {
	Experiment        string
	BaseHash, CurHash string
	Tol               Tolerances
	// ConfigMismatch warns that the two profiles were produced by
	// different configurations (hash of experiment/run/threshold) and
	// drift is therefore expected.
	ConfigMismatch bool
	// Deltas holds one entry per property present on either side,
	// sorted by name.
	Deltas []PropertyDelta
}

// Compare diffs cur against base under the given tolerances.
func Compare(base, cur *profile.Profile, tol Tolerances) *Diff {
	tol = tol.WithDefaults()
	d := &Diff{
		Experiment:     cur.Experiment,
		Tol:            tol,
		ConfigMismatch: base.ConfigHash != cur.ConfigHash,
	}
	d.BaseHash, _ = base.Hash()
	d.CurHash, _ = cur.Hash()

	names := map[string]bool{}
	for _, p := range base.Properties {
		names[p.Name] = true
	}
	for _, p := range cur.Properties {
		names[p.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		bp, cp := base.Get(name), cur.Get(name)
		pd := PropertyDelta{Name: name}
		var bSig, cSig bool
		if bp != nil {
			pd.BaseWait, pd.BaseSeverity, bSig = bp.Wait, bp.Severity, bp.Significant
			pd.Info = bp.Info
		}
		if cp != nil {
			pd.CurWait, pd.CurSeverity, cSig = cp.Wait, cp.Severity, cp.Significant
			pd.Info = cp.Info
		}
		pd.AbsDrift = pd.CurWait - pd.BaseWait
		if pd.BaseWait != 0 {
			pd.RelDrift = pd.AbsDrift / pd.BaseWait
		}
		pd.Appeared = cSig && !bSig
		pd.Disappeared = bSig && !cSig
		pd.WaitDrifted = math.Abs(pd.AbsDrift) > tol.AbsWait &&
			math.Abs(pd.AbsDrift) > tol.RelWait*pd.BaseWait
		// Every `> tol` comparison is false when the operand is NaN, so a
		// poisoned profile (NaN/Inf wait) would otherwise gate as "clean".
		// Non-finite on either side is always a regression.
		if !finite(pd.BaseWait) || !finite(pd.CurWait) || math.IsNaN(pd.AbsDrift) {
			pd.WaitDrifted = true
		}
		pd.Distance, pd.WorstLocation, pd.WorstDelta = locationDrift(bp, cp)
		pd.ShapeShifted = bp != nil && cp != nil &&
			(pd.Distance > tol.OutlierDist || math.IsNaN(pd.Distance))
		d.Deltas = append(d.Deltas, pd)
	}
	return d
}

// locationDrift compares the per-location wait vectors of two property
// records.  It returns the L2 distance between the unit-sum-normalized
// vectors (the outlier signal) plus the location with the largest raw
// wait change.
func locationDrift(bp, cp *profile.Property) (dist float64, worst string, worstDelta float64) {
	var bm, cm map[string]float64
	if bp != nil {
		bm = bp.LocationMap()
	}
	if cp != nil {
		cm = cp.LocationMap()
	}
	var bTot, cTot float64
	for _, w := range bm {
		bTot += w
	}
	for _, w := range cm {
		cTot += w
	}
	keys := map[string]bool{}
	for k := range bm {
		keys[k] = true
	}
	for k := range cm {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	var sumSq float64
	for _, k := range sorted {
		var bShare, cShare float64
		if bTot > 0 {
			bShare = bm[k] / bTot
		}
		if cTot > 0 {
			cShare = cm[k] / cTot
		}
		sumSq += (cShare - bShare) * (cShare - bShare)
		delta := cm[k] - bm[k]
		if math.Abs(delta) > math.Abs(worstDelta) ||
			(math.Abs(delta) == math.Abs(worstDelta) && worst == "") {
			worst, worstDelta = k, delta
		}
	}
	// A side with zero total is the zero vector: a distribution that
	// appears from (or collapses to) nothing is maximal shape drift — the
	// L2 norm of the surviving normalized vector — not zero drift.
	dist = math.Sqrt(sumSq)
	return dist, worst, worstDelta
}

// Regressions returns the deltas that violate the tolerances.
func (d *Diff) Regressions() []PropertyDelta {
	var out []PropertyDelta
	for _, pd := range d.Deltas {
		if pd.Regressed() {
			out = append(out, pd)
		}
	}
	return out
}

// Regressed reports whether any property violates the tolerances.
func (d *Diff) Regressed() bool { return len(d.Regressions()) > 0 }

// Render produces the human-readable comparison report.  For each flagged
// property it names the drift and the worst-outlier location, which is
// what a CI failure message needs to be actionable.
func (d *Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "regression check: %s (base %s → cur %s)\n",
		d.Experiment, shortHash(d.BaseHash), shortHash(d.CurHash))
	if d.ConfigMismatch {
		fmt.Fprintf(&b, "WARNING: config hash mismatch — profiles come from different setups; drift is expected\n")
	}
	fmt.Fprintf(&b, "tolerances: rel %.2f%%, abs %.2es, outlier-dist %.3f\n",
		d.Tol.RelWait*100, d.Tol.AbsWait, d.Tol.OutlierDist)
	fmt.Fprintf(&b, "%-36s %12s %12s %9s %8s  %s\n",
		"property", "base(s)", "cur(s)", "drift", "dist", "verdict")
	for _, pd := range d.Deltas {
		name := pd.Name
		if pd.Info {
			name += " [info]"
		}
		fmt.Fprintf(&b, "%-36s %12.6f %12.6f %8.1f%% %8.4f  %s\n",
			name, pd.BaseWait, pd.CurWait, pd.RelDrift*100, pd.Distance, pd.status())
	}
	regs := d.Regressions()
	if len(regs) == 0 {
		fmt.Fprintf(&b, "result: OK — zero drift beyond tolerance\n")
		return b.String()
	}
	fmt.Fprintf(&b, "result: %d propert%s drifted:\n", len(regs), plural(len(regs), "y", "ies"))
	for _, pd := range regs {
		fmt.Fprintf(&b, "  %s: %s — wait %.6fs → %.6fs (%+.1f%%)",
			pd.Name, pd.status(), pd.BaseWait, pd.CurWait, pd.RelDrift*100)
		if pd.WorstLocation != "" {
			fmt.Fprintf(&b, "; worst location %s (%+.6fs)", pd.WorstLocation, pd.WorstDelta)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
