// Command atsregress tracks performance regressions across runs of the
// test suite.  It manages a content-addressed store of canonical profiles
// (produced by `atsbench -profiles DIR`) and compares fresh profiles
// against stored baselines: per-property severity drift within
// configurable tolerances, detection-set changes (a property appearing or
// disappearing — positive/negative correctness flips), and per-location
// outliers via normalized wait-vector distance.
//
// Usage:
//
//	atsregress save  [-store DIR] profile.json...   save as baselines
//	atsregress list  [-store DIR]                   list baselines
//	atsregress diff  [-store DIR flags] A.json B.json   diff two files
//	atsregress diff  [-store DIR flags] -name EXP B.json  vs stored baseline
//	atsregress check [-store DIR flags] profile.json...  exit 1 on drift
//	atsregress similar [-store DIR] [-k N] <hash|profile.json>  nearest profiles
//	atsregress submit -server URL [-experiment E] [-save] file...
//	atsregress ping   -server URL
//
// submit and ping talk to a running atsd server (see cmd/atsd) instead
// of the local store: cases and traces are analyzed server-side through
// the same pipeline and the drift verdict comes back as JSON, with
// submit keeping check's exit-1-on-drift contract.
//
// The check subcommand is the CI entry point: `atsbench -profiles tmp &&
// atsregress check tmp/*.json` fails the build when any experiment's
// known severities drifted from the committed baselines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/similarity"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code.  It is
// factored out of main so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "save":
		err = cmdSave(rest, stdout)
	case "list":
		err = cmdList(rest, stdout)
	case "diff":
		var regressed bool
		regressed, err = cmdDiff(rest, stdout)
		if err == nil && regressed {
			return 1
		}
	case "check":
		var regressed bool
		regressed, err = cmdCheck(rest, stdout)
		if err == nil && regressed {
			return 1
		}
	case "similar":
		err = cmdSimilar(rest, stdout)
	case "submit":
		var regressed bool
		regressed, err = cmdSubmit(rest, stdout)
		if err == nil && regressed {
			return 1
		}
	case "ping":
		err = cmdPing(rest, stdout)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "atsregress: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "atsregress: %v\n", err)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: atsregress <command> [flags] [args]

commands:
  save  [-store DIR] profile.json...        store profiles as baselines
  list  [-store DIR]                        list stored baselines
  diff  [-store DIR] [tolerances] A.json B.json
  diff  [-store DIR] [tolerances] -name EXPERIMENT B.json
  check [-store DIR] [tolerances] profile.json...
                                            compare against baselines;
                                            exit 1 on any regression
  similar [-store DIR] [-k N] <hash|profile.json>
                                            top-k most similar stored
                                            profiles (LSH index)
  submit -server URL [-experiment E] [-save] [-threshold F] file...
                                            upload cases/traces to an atsd
                                            server; exit 1 on drift
  ping   -server URL                        probe atsd health
tolerance flags (diff, check):
  -rel F      relative wait-drift tolerance (default 0.02)
  -abs F      absolute wait floor in seconds (default 1e-6)
  -outlier F  normalized wait-vector distance tolerance (default 0.05)
`)
}

// storeFlag registers the common -store flag on fs.
func storeFlag(fs *flag.FlagSet) *string {
	return fs.String("store", regress.DefaultStoreDir, "profile store directory")
}

// tolFlags registers the tolerance flags on fs.
func tolFlags(fs *flag.FlagSet) *regress.Tolerances {
	tol := &regress.Tolerances{}
	fs.Float64Var(&tol.RelWait, "rel", 0, "relative wait-drift tolerance (0 = default)")
	fs.Float64Var(&tol.AbsWait, "abs", 0, "absolute wait floor in seconds (0 = default)")
	fs.Float64Var(&tol.OutlierDist, "outlier", 0, "wait-vector distance tolerance (0 = default)")
	return tol
}

func cmdSave(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("save", flag.ContinueOnError)
	dir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("save: no profile files given")
	}
	store, err := regress.Open(*dir)
	if err != nil {
		return err
	}
	for _, path := range fs.Args() {
		p, err := profile.ReadFile(path)
		if err != nil {
			return err
		}
		hash, err := store.SaveBaseline(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved %-36s %s\n", p.Experiment, hash[:12])
	}
	return nil
}

func cmdList(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	dir := storeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := regress.Open(*dir)
	if err != nil {
		return err
	}
	entries, err := store.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintf(stdout, "store %s: no baselines\n", store.Dir())
		return nil
	}
	fmt.Fprintf(stdout, "%-36s %-12s %4s %6s %6s  %s\n",
		"experiment", "baseline", "vers", "shape", "sig", "top finding")
	for _, e := range entries {
		top := "(clean)"
		if e.TopProperty != "" {
			top = fmt.Sprintf("%s %.2f%%", e.TopProperty, e.TopSeverity*100)
		}
		fmt.Fprintf(stdout, "%-36s %-12s %4d %3dx%-2d %6d  %s\n",
			e.Experiment, e.Hash[:12], e.Versions, e.Ranks, e.Threads, e.Significant, top)
	}
	return nil
}

// cmdSimilar answers "which stored runs does this profile look like?"
// through the store's persistent LSH index.  The query is a stored
// object's content hash or a profile file that need not be stored; the
// index is created and backfilled on first use.
func cmdSimilar(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("similar", flag.ContinueOnError)
	dir := storeFlag(fs)
	k := fs.Int("k", 5, "number of nearest profiles to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("similar: want one stored hash or profile file")
	}
	store, err := regress.Open(*dir)
	if err != nil {
		return err
	}
	arg := fs.Arg(0)
	var (
		matches []similarity.Match
		probed  int
	)
	if regress.ValidHash(arg) {
		matches, probed, err = store.Similar(arg, *k)
	} else {
		p, rerr := profile.ReadFile(arg)
		if rerr != nil {
			return rerr
		}
		matches, probed, err = store.SimilarProfile(p, *k)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-12s %10s  %-36s %s\n", "hash", "similarity", "experiment", "top finding")
	for _, m := range matches {
		exp, top := "(unreadable)", ""
		if mp, gerr := store.Get(m.Hash); gerr == nil {
			exp = mp.Experiment
			top = "(clean)"
			worst := 0.0
			for _, prop := range mp.Significant() {
				if prop.Severity > worst {
					worst = prop.Severity
					top = fmt.Sprintf("%s %.2f%%", prop.Name, prop.Severity*100)
				}
			}
		}
		fmt.Fprintf(stdout, "%-12s %10.6f  %-36s %s\n", m.Hash[:12], m.Similarity, exp, top)
	}
	fmt.Fprintf(stdout, "probed %d of %d indexed profiles\n", probed, store.Indexed())
	return nil
}

func cmdDiff(args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	dir := storeFlag(fs)
	tol := tolFlags(fs)
	name := fs.String("name", "", "diff against the stored baseline of this experiment")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	var base, cur *profile.Profile
	switch {
	case *name != "" && fs.NArg() == 1:
		store, err := regress.Open(*dir)
		if err != nil {
			return false, err
		}
		base, _, err = store.Baseline(*name)
		if err != nil {
			return false, err
		}
		if cur, err = profile.ReadFile(fs.Arg(0)); err != nil {
			return false, err
		}
	case *name == "" && fs.NArg() == 2:
		var err error
		if base, err = profile.ReadFile(fs.Arg(0)); err != nil {
			return false, err
		}
		if cur, err = profile.ReadFile(fs.Arg(1)); err != nil {
			return false, err
		}
	default:
		return false, fmt.Errorf("diff: want two profile files, or -name EXPERIMENT and one file")
	}
	d := regress.Compare(base, cur, *tol)
	fmt.Fprint(stdout, d.Render())
	return d.Regressed(), nil
}

func cmdCheck(args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	dir := storeFlag(fs)
	tol := tolFlags(fs)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() == 0 {
		return false, fmt.Errorf("check: no profile files given")
	}
	store, err := regress.Open(*dir)
	if err != nil {
		return false, err
	}
	regressed := false
	for _, path := range fs.Args() {
		cur, err := profile.ReadFile(path)
		if err != nil {
			return false, err
		}
		base, _, err := store.Baseline(cur.Experiment)
		if err != nil {
			return false, fmt.Errorf("%w (save one first: atsregress save -store %s %s)",
				err, store.Dir(), path)
		}
		d := regress.Compare(base, cur, *tol)
		fmt.Fprint(stdout, d.Render())
		fmt.Fprintln(stdout)
		if d.Regressed() {
			regressed = true
		}
	}
	if regressed {
		fmt.Fprintln(stdout, "CHECK FAILED: performance regressions detected")
	} else {
		fmt.Fprintln(stdout, "CHECK OK: all experiments within tolerance")
	}
	return regressed, nil
}
