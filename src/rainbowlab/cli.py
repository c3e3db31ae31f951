"""Command-line front end: audits and experiments as subcommands.

One subcommand per job, JSON on stdout for machine-readable reports, logs on
stderr only.  Exit codes: 0 completed, 1 bad input or config, 2 usage error,
3 budget exhausted.  A --config file provides flag defaults, each checked as
its flag is; command-line flags always win.  Randomized subcommands fall
back to a fixed, announced seed when --seed is omitted, so every published
run is replayable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fragments, hampow, rainbow, threshold
from .errors import BudgetError, InputError
from .hypergraph import (
    DEFAULT_PAIR_BUDGET,
    DISTINCT_SETS,
    LABELED_ORDERS,
    intersection_profile,
    read_hypergraph_text,
    required_k0,
    spread_up_to,
)
from .seeding import mix

DEFAULT_SEED = 1729


def _ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _resolve_seed(args) -> int:
    if args.seed is None:
        print(f"note: --seed not given, using fixed seed {DEFAULT_SEED}", file=sys.stderr)
        return DEFAULT_SEED
    return args.seed


def _need(args, dest: str) -> None:
    if getattr(args, dest) is None:
        raise InputError(f"--{dest} is required (as a flag or a config key)")


def _refuse(args, mode: str, *flags: str) -> None:
    """Refuse a flag registered with `_Given` that `mode` would ignore, when
    the command line or the config gives it."""
    for flag in flags:
        if flag in getattr(args, "given", ()):
            raise InputError(f"{flag} does not apply {mode}")


def _emit(payload: dict, args, filename: str) -> None:
    """Primary JSON to stdout; a copy under --out-dir when one is given."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text)
        print(f"wrote {out / filename}", file=sys.stderr)


def _family(args) -> hampow.PowerFamily:
    params = hampow.PowerParams(args.n, args.k)
    return hampow.enumerate_family(params, budget=args.budget)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _load_hypergraph(args):
    """Either an explicit file or the (n, k) power family, as chosen by flags."""
    if getattr(args, "input", None):
        _refuse(args, "with --input", "--n", "--k", "--budget")
        return read_hypergraph_text(_read_text(Path(args.input)), semantics=args.semantics)
    if args.n is None:
        raise InputError("give either --input FILE or --n (with --k)")
    return _family(args).hypergraph(args.semantics)


# ----------------------------------------------------------------------------
# handlers

def cmd_family(args) -> int:
    _need(args, "n")
    fam = _family(args)
    payload = {
        "n": args.n,
        "k": args.k,
        "orders": len(fam.orders),
        "distinct_sets": len(fam.edge_sets),
        "collisions": fam.collisions,
        "r": fam.params.r,
    }
    if args.write_text:
        hg = fam.hypergraph(args.semantics)
        out_dir = args.out_dir or "."
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        target = out / f"family_n{args.n}_k{args.k}.txt"
        from .hypergraph import format_hypergraph_text

        target.write_text(format_hypergraph_text(hg))
        print(f"wrote {target}", file=sys.stderr)
        payload["file"] = str(target)
    _emit(payload, args, f"family_n{args.n}_k{args.k}.json")
    return 0


def cmd_spread(args) -> int:
    hg = _load_hypergraph(args)
    report = spread_up_to(hg, args.smax)
    value = report.kappa_s
    # prefer the exact-looking form when the root is an integer
    print(f"kappa_s = {value:g}")
    print(
        f"witness S = {report.witness} (|S| = {len(report.witness)}, "
        f"count = {report.witness_count}, |H| = {report.family_size})"
    )
    for size, best in sorted(report.per_size.items()):
        print(f"  s = {size}: min ratio root = {best:g}", file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    hg = _load_hypergraph(args)
    if args.kappa is not None:
        kappa = args.kappa
    elif args.input:
        raise InputError("--kappa is required with --input (no nominal value to fall back on)")
    else:
        kappa = float(args.n) ** (1.0 / args.k)
    report = required_k0(hg, kappa, args.alpha, pair_budget=args.pair_budget)
    payload = {
        "kappa": report.kappa,
        "alpha": report.alpha,
        "t_cut": report.t_cut,
        "family_size": report.family_size,
        "fmax": list(report.fmax),
        "k0_min": report.k0_min,
        "spreadf_ok": report.spreadf_ok,
    }
    _emit(payload, args, "profile.json")
    return 0


def cmd_audit_prop1(args) -> int:
    _need(args, "n")
    report = hampow.audit_prop1(args.n, args.k, budget=args.budget)
    _emit(report.to_json(), args, f"audit_prop1_n{args.n}_k{args.k}.json")
    return 0


def cmd_audit_prop2(args) -> int:
    other_reading = {"a": ("--n-min", "--n-max"), "b": ("--budget",)}[args.reading]
    _refuse(args, f"to reading ({args.reading})", *other_reading)
    if args.reading == "a":
        _need(args, "n")
        report = hampow.audit_prop2_reading_a(args.n, args.k, budget=args.budget)
    else:
        if args.n is not None:
            raise InputError("reading (b) takes its n range from --n-min/--n-max, not --n")
        if args.k >= 1 and args.n_min < 2 * args.k + 2:
            raise InputError(
                f"--n-min must be at least 2k+2 = {2 * args.k + 2} for --k {args.k}, got {args.n_min}"
            )
        n_values = list(range(args.n_min, args.n_max + 1))
        report = hampow.audit_prop2_reading_b(n_values, args.k)
    _emit(report.to_json(), args, f"audit_prop2_{args.reading}_k{args.k}.json")
    return 0


def cmd_audit_chain(args) -> int:
    _need(args, "n")
    params = hampow.PowerParams(args.n, args.k)
    t_max = args.t_max if args.t_max is not None else params.t_max
    if args.t_max is not None and not 1 <= t_max <= params.t_max:
        span = f"must lie in 1..{params.t_max}" if params.t_max else "has no range: n/3k < 1"
        raise InputError(f"--t-max {span} for n={args.n}, k={args.k}")
    # every exact ratio f_t / |H| is one entry of the same labeled-orders
    # profile row, taken once when the family fits the budget
    ratios = [None] * (t_max + 1)
    if hampow.orders_fit(args.n, args.budget) and t_max >= 1:
        fam = _family(args)
        ratios = [f / len(fam.orders) for f in intersection_profile(fam.hypergraph(LABELED_ORDERS), 0)]
    rows = [
        {"t": t, "bound": hampow.f_chain_bound(args.n, args.k, t), "exact_ratio": ratios[t]}
        for t in range(1, t_max + 1)
    ]
    _emit({"n": args.n, "k": args.k, "rows": rows}, args, f"audit_chain_n{args.n}_k{args.k}.json")
    return 0


def cmd_moments(args) -> int:
    _need(args, "n")
    if args.trials < 0:
        raise InputError("--trials must be >= 0 (0 runs the exact moments only)")
    if args.trials == 0:
        _refuse(args, "with --trials 0", "--seed")
    if args.q is not None:
        _refuse(args, "with --q", "--epsilon1")
    fam = _family(args)
    hg = fam.hypergraph(args.semantics)
    q = args.q if args.q is not None else rainbow.default_color_count(hg.r, args.epsilon1)
    if args.trials > 0:
        report = rainbow.empirical_moments(
            hg, q, trials=args.trials, seed=_resolve_seed(args), pair_budget=args.pair_budget
        )
        payload = report.to_json()
    else:
        stats = rainbow.exact_second_moment(hg, q, pair_budget=args.pair_budget)
        payload = stats.to_json()
    _emit(payload, args, f"moments_n{args.n}_k{args.k}_q{q}.json")
    return 0


def _fragment_config(args, seed: int, omega=None) -> fragments.TwoRoundConfig:
    params = hampow.PowerParams(args.n, args.k)
    q = args.q if args.q is not None else rainbow.default_color_count(params.r, args.epsilon1)
    return fragments.TwoRoundConfig(
        q=q,
        C=args.C,
        epsilon1=args.epsilon1,
        seed=seed,
        params=params,
        omega=omega if omega is not None else args.omega,
        coloring_mode=args.mode,
        order_budget=args.budget,
    )


def cmd_fragment(args) -> int:
    _need(args, "n")
    seed = _resolve_seed(args)
    if args.sweep is None:
        _refuse(args, "without --sweep", "--sweep-trials")
        record = fragments.run_two_round(_fragment_config(args, seed))
        _emit(record.to_json(), args, f"fragment_n{args.n}_k{args.k}.json")
        return 0

    _refuse(args, "with --sweep", "--omega")
    omegas = sorted(set(args.sweep))
    if any(w < 1 for w in omegas):
        raise InputError("--sweep values must be >= 1")
    if args.sweep_trials < 1:
        raise InputError("--sweep-trials must be >= 1")
    rows = []
    for omega in omegas:
        failures = 0
        bad_total = 0
        for i in range(args.sweep_trials):
            cfg = _fragment_config(args, mix(seed, 0x7377_6565, i), omega=omega)
            rec = fragments.run_two_round(cfg)
            if not rec.success:
                failures += 1
            bad_total += rec.bad_count
        rows.append(
            {
                "omega": omega,
                "trials": args.sweep_trials,
                "failures": failures,
                "failure_rate": failures / args.sweep_trials,
                "mean_bad": bad_total / args.sweep_trials,
            }
        )
    fit = threshold.fit_failure_constant([(r["omega"], r["failure_rate"]) for r in rows])
    payload = {
        "rows": rows,
        "fit": {"c": fit.c, "available": fit.available, "reason": fit.reason},
    }
    _emit(payload, args, f"fragment_sweep_n{args.n}_k{args.k}.json")
    return 0


def cmd_threshold(args) -> int:
    _need(args, "n")
    seed = _resolve_seed(args)
    q = args.q if args.q is not None else rainbow.default_color_count(args.k * args.n, 0.1)
    config = threshold.ExperimentConfig(
        n=args.n,
        k=args.k,
        q=q,
        trials=args.trials,
        seed=seed,
        c_grid=tuple(args.c_grid) if args.c_grid else None,
        m_grid=tuple(args.m_grid) if args.m_grid else None,
        budget=args.budget,
        workers=args.workers,
        require_rainbow=not args.no_rainbow,
    )
    results = threshold.run_grid(config)
    paths = threshold.emit_report(
        results, args.out_dir, svg=not args.no_svg, timing=args.timing
    )
    for p in paths:
        print(f"wrote {p}", file=sys.stderr)
    return 0


def cmd_search(args) -> int:
    if args.input:
        _refuse(args, "with --input", "--n", "--k", "--m", "--q", "--seed")
        inst = threshold.read_instance_text(_read_text(Path(args.input)))
    else:
        if args.n is None or args.m is None:
            raise InputError("give either --input FILE or all of --n, --m (with --k, --q)")
        seed = _resolve_seed(args)
        q = args.q if args.q is not None else rainbow.default_color_count(args.k * args.n, 0.1)
        from .seeding import make_rng

        inst = threshold.sample_instance(args.n, args.k, q, args.m, make_rng(seed, 0x696E_7374))
    res = threshold.rainbow_power_search(
        inst, require_rainbow=not args.no_rainbow, budget=args.budget
    )
    if res.found is None:
        print(f"verdict: unknown (budget of {args.budget} nodes exhausted)")
        print(f"nodes: {res.nodes}")
        return 3
    print(f"verdict: {'found' if res.found else 'absent'}")
    print(f"nodes: {res.nodes}")
    if res.witness:
        print("witness: " + " ".join(str(v) for v in res.witness))
    return 0


def cmd_report(args) -> int:
    _need(args, "input")
    path = Path(args.input)
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    try:
        results = threshold.GridResults.from_json(data)
    except KeyError as exc:
        raise InputError(f"{path} does not look like a grid summary: missing field {exc}")
    except TypeError as exc:
        raise InputError(f"{path} does not look like a grid summary: {exc}")
    timing = args.timing or bool(data.get("timing"))
    paths = threshold.emit_report(results, args.out_dir, svg=not args.no_svg, timing=timing)
    for p in paths:
        print(f"wrote {p}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# parser

class _Given(argparse.Action):
    """Store the value and add the flag to the namespace's `given` set, so a
    handler can tell a flag on the command line from its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {option_string}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="rainbowlab",
        description="Audits and experiments around rainbow Hamilton powers in random graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")
    registry: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.add_argument(
            "--config",
            metavar="PATH",
            default=None,
            help="JSON file whose keys mirror flags; command-line flags override it",
        )
        p.add_argument("--out-dir", metavar="DIR", default=None, help="directory for output files")
        registry[name] = p
        return p

    def add_nk(p, **kwargs):
        # not argparse-required: a --config file may supply it, so presence is
        # checked after the merge
        p.add_argument("--n", type=int, default=None, help="number of vertices", **kwargs)
        p.add_argument("--k", type=int, default=1, help="power of the Hamilton cycle", **kwargs)

    def add_budget(p, help_text="enumeration budget (cyclic orders)", **kwargs):
        p.add_argument("--budget", type=int, default=hampow.DEFAULT_ORDER_BUDGET, help=help_text, **kwargs)

    def add_semantics(p, input_file=False, help_text="member identity for the family"):
        if input_file:
            p.add_argument("--input", metavar="FILE", default=None, help="hypergraph text file instead of --n/--k")
        p.add_argument(
            "--semantics",
            choices=[DISTINCT_SETS, LABELED_ORDERS],
            default=DISTINCT_SETS,
            help=help_text,
        )

    p = add("family", "enumerate the k-th Hamilton powers of K_n and report counts")
    add_nk(p)
    add_budget(p)
    add_semantics(p, help_text="member identity used when writing the family")
    p.add_argument("--write-text", action="store_true", help="also write the family as a text file")
    p.set_defaults(func=cmd_family)

    p = add("spread", "compute the spread constant kappa_s of a family")
    add_nk(p, action=_Given)
    add_budget(p, action=_Given)
    p.add_argument("--smax", type=int, default=1, help="largest subset size to scan")
    add_semantics(p, input_file=True)
    p.set_defaults(func=cmd_spread)

    p = add("profile", "intersection profile and the least workable K0 for a family")
    add_nk(p, action=_Given)
    add_budget(p, action=_Given)
    add_semantics(p, input_file=True)
    p.add_argument("--alpha", type=float, default=1 / 3, help="profile cut fraction")
    p.add_argument("--kappa", type=float, default=None, help="spread parameter (default: n^(1/k))")
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET, help="member-pair budget")
    p.set_defaults(func=cmd_profile)

    audit_work = "work budget: member subgraphs walked plus placement-search nodes"

    p = add("audit-prop1", "exhaustively compare extension counts against their bound")
    add_nk(p)
    add_budget(p, audit_work)
    p.set_defaults(func=cmd_audit_prop1)

    p = add("audit-prop2", "audit the component-count bound, reading (a) or (b)")
    add_nk(p)
    add_budget(p, audit_work + " (reading (a) only)", action=_Given)
    p.add_argument("--reading", choices=["a", "b"], default="a", help="which reading to audit")
    p.add_argument("--n-min", type=int, default=4, action=_Given, help="first n for reading (b)")
    p.add_argument("--n-max", type=int, default=22, action=_Given, help="last n for reading (b)")
    p.set_defaults(func=cmd_audit_prop2)

    p = add("audit-chain", "profile-ratio chain bound versus exact ratios")
    add_nk(p)
    add_budget(p)
    p.add_argument("--t-max", type=int, default=None, help="largest t to audit (default: n // 3k)")
    p.set_defaults(func=cmd_audit_chain)

    p = add("moments", "exact and Monte Carlo rainbow-count moments")
    add_nk(p)
    add_budget(p)
    p.add_argument("--q", type=int, default=None, help="palette size (default: ceil((1+eps1) r))")
    p.add_argument("--epsilon1", type=float, default=0.1, action=_Given, help="palette surplus when --q is omitted")
    add_semantics(p)
    p.add_argument("--trials", type=int, default=100_000, help="Monte Carlo colorings (0: exact only)")
    p.add_argument("--seed", type=int, default=None, action=_Given, help="master seed")
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET, help="member-pair budget")
    p.set_defaults(func=cmd_moments)

    p = add("fragment", "run the two-round exposure process once, or sweep omega")
    add_nk(p)
    add_budget(p)
    p.add_argument("--q", type=int, default=None, help="palette size (default: ceil((1+eps1) r))")
    p.add_argument("--C", type=float, default=1.0, help="first-round exposure constant")
    p.add_argument("--epsilon1", type=float, default=0.1, help="acceptance slack")
    p.add_argument("--omega", type=int, default=None, action=_Given, help="fragment cutoff (default: ceil(r^(1/3)))")
    p.add_argument(
        "--mode",
        choices=[fragments.UPFRONT, fragments.STAGED],
        default=fragments.UPFRONT,
        help="color everything first, or color second-round elements on arrival",
    )
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--sweep", type=_ints, default=None, metavar="W1,W2,...", help="omega values to sweep")
    p.add_argument("--sweep-trials", type=int, default=100, action=_Given, help="runs per omega during a sweep")
    p.set_defaults(func=cmd_fragment)

    p = add("threshold", "success-rate grid over exposure sizes, with CSV/JSON/SVG reports")
    add_nk(p)
    p.add_argument("--q", type=int, default=None, help="palette size (default: ceil(1.1 k n))")
    p.add_argument("--c-grid", type=_floats, default=None, metavar="C1,C2,...", help="C values")
    p.add_argument("--m-grid", type=_ints, default=None, metavar="M1,M2,...", help="edge counts")
    p.add_argument("--trials", type=int, default=200, help="trials per grid point")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--budget", type=int, default=1_000_000, help="search node budget per trial")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument("--no-rainbow", action="store_true", help="ignore colors, decide bare containment")
    p.add_argument("--no-svg", action="store_true", help="skip the SVG plot")
    p.add_argument(
        "--timing",
        action="store_true",
        help="write measured mean_ms (breaks byte-for-byte reproducibility)",
    )
    p.set_defaults(func=cmd_threshold, out_dir="out")

    p = add("search", "decide one instance: rainbow Hamilton power present, absent, or unknown")
    add_nk(p, action=_Given)
    p.add_argument("--q", type=int, default=None, action=_Given, help="palette size (default: ceil(1.1 k n))")
    p.add_argument("--m", type=int, default=None, action=_Given, help="edges to sample when no --input")
    p.add_argument("--input", metavar="FILE", default=None, help="instance file to decide")
    p.add_argument("--seed", type=int, default=None, action=_Given, help="master seed for sampling")
    p.add_argument("--budget", type=int, default=1_000_000, help="search node budget")
    p.add_argument("--no-rainbow", action="store_true", help="ignore colors, decide bare containment")
    p.set_defaults(func=cmd_search)

    p = add("report", "re-emit CSV/SVG from an archived grid summary.json")
    # not argparse-required, like --n: a --config file may supply it
    p.add_argument("--input", metavar="FILE", default=None, help="summary.json from a grid run")
    p.add_argument("--no-svg", action="store_true", help="skip the SVG plot")
    p.add_argument("--timing", action="store_true", help="keep stored mean_ms values")
    p.set_defaults(func=cmd_report, out_dir="out")

    return parser, registry


# flag type -> the JSON values a config key may give it, and their name
_CONFIG_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    None: (str, "a string"),
    _ints: (int, "a list of integers or a comma-separated string"),
    _floats: ((int, float), "a list of numbers or a comma-separated string"),
}


def _config_value(action: argparse.Action, key: str, value):
    """A config value held to its flag's checks: true or false for an on/off
    flag, a JSON list or the command-line string for a list flag, one JSON
    value of the flag's type within its choices for any other.  Values pass
    through the flag's own type, so they come out as the command line gives
    them."""
    kinds, name = _CONFIG_TYPES[action.type]

    def fits(x) -> bool:
        return isinstance(x, kinds) and not isinstance(x, bool)

    text = str(value)
    if action.nargs == 0:
        ok, name = isinstance(value, bool), "true or false"
    elif action.type in (_ints, _floats):
        ok = isinstance(value, str) or isinstance(value, list) and all(map(fits, value))
        if isinstance(value, list):
            text = ",".join(map(str, value))
    elif action.choices is not None:
        ok, name = value in action.choices, "one of " + ", ".join(map(repr, action.choices))
    else:
        ok = fits(value)
    if not ok:
        raise InputError(f"config key {key!r} takes {name}, got {json.dumps(value)}")
    try:
        return action.type(text) if action.type else value
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"config key {key!r}: {exc}")


def _apply_config(path_text: str, subparser: argparse.ArgumentParser) -> set[str]:
    """Make a config file's values the subcommand's defaults, each checked as
    its flag is; null keeps the default.  Returns the flags the config moves
    off their defaults, which a handler treats as given."""
    path = Path(path_text)
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object of flag values")
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise InputError(f"config {path}: unknown key {key!r}")
        if value is not None:
            defaults[action.dest] = _config_value(action, key, value)
    given = {actions[d].option_strings[0] for d, v in defaults.items() if v != actions[d].default}
    subparser.set_defaults(**defaults)
    return given


def main(argv=None) -> int:
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            given = _apply_config(args.config, registry[args.subcommand])
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
            args.given = getattr(args, "given", frozenset()) | given
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
