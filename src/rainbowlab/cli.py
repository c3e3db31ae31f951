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
from typing import Callable, NamedTuple

from . import fragments, hampow, rainbow, threshold
from .errors import BudgetError, InputError
from .hypergraph import (
    DEFAULT_PAIR_BUDGET,
    DISTINCT_SETS,
    LABELED_ORDERS,
    format_hypergraph_text,
    intersection_profile,
    read_hypergraph_text,
    required_k0,
    spread_up_to,
)
from .seeding import make_rng

DEFAULT_SEED = 1729


def _list_of(kind, what: str):
    """A flag type for comma-separated values; an empty list is refused."""

    def parse(text: str) -> list:
        try:
            values = [kind(p) for p in text.split(",") if p.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
        return values

    return parse


_ints = _list_of(int, "integers")
_floats = _list_of(float, "numbers")


def _wrote(paths: list[Path]) -> list[Path]:
    """Say on stderr which files a command wrote."""
    for path in paths:
        print(f"wrote {path}", file=sys.stderr)
    return paths


def _emit(payload: dict, args, filename: str) -> None:
    """Primary JSON to stdout, after its copy under --out-dir when one is
    given, so that a refused copy prints nothing."""
    text = threshold._json_text(payload)
    if args.out_dir is not None:
        _wrote(threshold._write_files(args.out_dir, {filename: text}))
    sys.stdout.write(text)


def _family(args) -> hampow.PowerFamily:
    params = hampow.PowerParams(args.n, args.k)
    return hampow.enumerate_family(params, budget=args.budget)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _read_json(path: Path, what: str = ""):
    """The parsed JSON file at path; a refusal names it as what + path."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}{path} is not valid JSON: {exc}")


def _load_hypergraph(args):
    """Either an explicit file or the (n, k) power family, as chosen by flags."""
    if getattr(args, "input", None):
        return read_hypergraph_text(_read_text(Path(args.input)), semantics=args.semantics)
    return _family(args).hypergraph(args.semantics)


# ----------------------------------------------------------------------------
# handlers

def cmd_family(args) -> int:
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
        files = {f"family_n{args.n}_k{args.k}.txt": format_hypergraph_text(fam.hypergraph(args.semantics))}
        [target] = _wrote(threshold._write_files(args.out_dir or ".", files))
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
    # the mode check asks a file for --kappa: it has no nominal n^(1/k)
    kappa = args.kappa if args.kappa is not None else hampow.PowerParams(args.n, args.k).kappa_hat
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
    report = hampow.audit_prop1(args.n, args.k, budget=args.budget)
    _emit(report.to_json(), args, f"audit_prop1_n{args.n}_k{args.k}.json")
    return 0


def cmd_audit_prop2(args) -> int:
    if args.reading == "a":
        report = hampow.audit_prop2_reading_a(args.n, args.k, budget=args.budget)
    else:
        if args.k >= 1 and args.n_min < 2 * args.k + 2:
            raise InputError(
                f"--n-min must be at least 2k+2 = {2 * args.k + 2} for --k {args.k}, got {args.n_min}"
            )
        n_values = list(range(args.n_min, args.n_max + 1))
        report = hampow.audit_prop2_reading_b(n_values, args.k)
    _emit(report.to_json(), args, f"audit_prop2_{args.reading}_k{args.k}.json")
    return 0


def cmd_audit_chain(args) -> int:
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
    if args.trials < 0:
        raise InputError("--trials must be >= 0 (0 runs the exact moments only)")
    hg = _load_hypergraph(args)
    q = args.q if args.q is not None else rainbow.default_color_count(hg.r, args.epsilon1)
    if args.trials > 0:
        report = rainbow.empirical_moments(
            hg, q, trials=args.trials, seed=args.seed, pair_budget=args.pair_budget
        )
        payload = report.to_json()
    else:
        stats = rainbow.exact_second_moment(hg, q, pair_budget=args.pair_budget)
        payload = stats.to_json()
    _emit(payload, args, f"moments_n{args.n}_k{args.k}_q{q}.json")
    return 0


def _fragment_config(args) -> fragments.TwoRoundConfig:
    params = hampow.PowerParams(args.n, args.k)
    q = args.q if args.q is not None else rainbow.default_color_count(params.r, args.epsilon1)
    return fragments.TwoRoundConfig(
        q=q,
        C=args.C,
        epsilon1=args.epsilon1,
        seed=args.seed,
        params=params,
        omega=args.omega,
        coloring_mode=args.mode,
        order_budget=args.budget,
    )


def cmd_fragment(args) -> int:
    if args.sweep is None:
        record = fragments.run_two_round(_fragment_config(args))
        _emit(record.to_json(), args, f"fragment_n{args.n}_k{args.k}.json")
        return 0

    if any(w < 1 for w in args.sweep):
        raise InputError("--sweep values must be >= 1")
    if args.sweep_trials < 1:
        raise InputError("--sweep-trials must be >= 1")
    payload = fragments.omega_sweep(_fragment_config(args), args.sweep, args.sweep_trials)
    _emit(payload, args, f"fragment_sweep_n{args.n}_k{args.k}.json")
    return 0


def cmd_threshold(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    if args.workers < 1:
        raise InputError(f"--workers must be >= 1, got {args.workers}")
    q = args.q if args.q is not None else rainbow.default_color_count(args.k * args.n, 0.1)
    config = threshold.ExperimentConfig(
        n=args.n,
        k=args.k,
        q=q,
        trials=args.trials,
        seed=args.seed,
        c_grid=tuple(args.c_grid) if args.c_grid is not None else None,
        m_grid=tuple(args.m_grid) if args.m_grid is not None else None,
        budget=args.budget,
        workers=args.workers,
        require_rainbow=not args.no_rainbow,
    )
    threshold._write_files(args.out_dir, {})  # the directory, before the grid runs
    results = threshold.run_grid(config)
    _wrote(threshold.emit_report(results, args.out_dir, svg=not args.no_svg, timing=args.timing))
    return 0


def cmd_search(args) -> int:
    if args.input:
        inst = threshold.read_instance_text(_read_text(Path(args.input)))
    else:
        q = args.q if args.q is not None else rainbow.default_color_count(args.k * args.n, 0.1)
        inst = threshold.sample_instance(args.n, args.k, q, args.m, make_rng(args.seed, 0x696E_7374))
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
    path = Path(args.input)
    data = _read_json(path)
    try:
        results = threshold.GridResults.from_json(data)
    except KeyError as exc:
        raise InputError(f"{path} does not look like a grid summary: missing field {exc}")
    except TypeError as exc:
        raise InputError(f"{path} does not look like a grid summary: {exc}")
    timing = args.timing or bool(data.get("timing"))
    _wrote(threshold.emit_report(results, args.out_dir, svg=not args.no_svg, timing=timing))
    return 0


# ----------------------------------------------------------------------------
# parser

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

    def add_nk(p):
        # not argparse-required: a --config file may supply it, so the mode
        # check asks for it after the merge
        p.add_argument("--n", type=int, default=None, help="number of vertices")
        p.add_argument("--k", type=int, default=1, help="power of the Hamilton cycle")

    def add_budget(p, help_text="enumeration budget (cyclic orders)"):
        p.add_argument("--budget", type=int, default=hampow.DEFAULT_ORDER_BUDGET, help=help_text)

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
    add_nk(p)
    add_budget(p)
    p.add_argument("--smax", type=int, default=1, help="largest subset size to scan")
    add_semantics(p, input_file=True)
    p.set_defaults(func=cmd_spread)

    p = add("profile", "intersection profile and the least workable K0 for a family")
    add_nk(p)
    add_budget(p)
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
    add_budget(p, audit_work + " (reading (a) only)")
    p.add_argument("--reading", choices=["a", "b"], default="a", help="which reading to audit")
    p.add_argument("--n-min", type=int, default=4, help="first n for reading (b)")
    p.add_argument("--n-max", type=int, default=22, help="last n for reading (b)")
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
    p.add_argument("--epsilon1", type=float, default=0.1, help="palette surplus when --q is omitted")
    add_semantics(p)
    p.add_argument("--trials", type=int, default=100_000, help="Monte Carlo colorings (0: exact only)")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET, help="member-pair budget")
    p.set_defaults(func=cmd_moments)

    p = add("fragment", "run the two-round exposure process once, or sweep omega")
    add_nk(p)
    add_budget(p)
    p.add_argument("--q", type=int, default=None, help="palette size (default: ceil((1+eps1) r))")
    p.add_argument("--C", type=float, default=1.0, help="first-round exposure constant")
    p.add_argument("--epsilon1", type=float, default=0.1, help="acceptance slack")
    p.add_argument("--omega", type=int, default=None, help="fragment cutoff (default: ceil(r^(1/3)))")
    p.add_argument(
        "--mode",
        choices=[fragments.UPFRONT, fragments.STAGED],
        default=fragments.UPFRONT,
        help="color everything first, or color second-round elements on arrival",
    )
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--sweep", type=_ints, default=None, metavar="W1,W2,...", help="omega values to sweep")
    p.add_argument("--sweep-trials", type=int, default=100, help="runs per omega during a sweep")
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
    add_nk(p)
    p.add_argument("--q", type=int, default=None, help="palette size (default: ceil(1.1 k n))")
    p.add_argument("--m", type=int, default=None, help="edges to sample when no --input")
    p.add_argument("--input", metavar="FILE", default=None, help="instance file to decide")
    p.add_argument("--seed", type=int, default=None, help="master seed for sampling")
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


# ----------------------------------------------------------------------------
# modes

class _Mode(NamedTuple):
    """One way a command runs, on when `when(args)` holds: each flag in
    `unread` is refused when given, and each flag in `needs` must be set.
    The phrase completes "X does not apply ..." and "X is required ..."."""

    command: str
    phrase: str
    unread: tuple[str, ...] = ()
    needs: tuple[str, ...] = ()
    when: Callable[[argparse.Namespace], bool] = lambda args: True


# the modes of every command; several can be on at once (moments with
# --trials 0 and --q), and the check reads each one that is on.  Every
# command with --n also needs it, unless a mode that is on leaves it unread.
MODES = (
    _Mode("family", "without --write-text", ("--semantics",), when=lambda a: not a.write_text),
    _Mode("spread", "in spread, which writes no report", ("--out-dir",)),
    _Mode("spread", "with --input", ("--n", "--k", "--budget"), when=lambda a: bool(a.input)),
    # a file has no nominal kappa n^(1/k) to fall back on
    _Mode(
        "profile", "with --input", ("--n", "--k", "--budget"), ("--kappa",), when=lambda a: bool(a.input)
    ),
    _Mode("audit-prop2", "in reading (a)", ("--n-min", "--n-max"), when=lambda a: a.reading == "a"),
    _Mode(
        "audit-prop2",
        "in reading (b), which takes n from --n-min to --n-max",
        ("--n", "--budget"),
        when=lambda a: a.reading == "b",
    ),
    _Mode("moments", "with --trials 0", ("--seed",), when=lambda a: a.trials == 0),
    _Mode("moments", "with --q", ("--epsilon1",), when=lambda a: a.q is not None),
    _Mode("fragment", "with --sweep", ("--omega", "--mode"), when=lambda a: a.sweep is not None),
    _Mode("fragment", "without --sweep", ("--sweep-trials",), when=lambda a: a.sweep is None),
    _Mode("threshold", "with --c-grid", ("--m-grid",), when=lambda a: a.c_grid is not None),
    _Mode("threshold", "without --c-grid", needs=("--m-grid",), when=lambda a: a.c_grid is None),
    _Mode("search", "in search, which writes no report", ("--out-dir",)),
    _Mode(
        "search", "with --input", ("--n", "--k", "--m", "--q", "--seed"), when=lambda a: bool(a.input)
    ),
    _Mode("search", "without --input", needs=("--m",), when=lambda a: not a.input),
    _Mode("report", "in report", needs=("--input",)),
)


def _given(subparser: argparse.ArgumentParser, argv: list[str]) -> set[str]:
    """The flags on the command line, in full, abbreviated or as --flag=value,
    even at their default: the ones that overwrite a marker set for each."""
    unset = object()
    marked = argparse.Namespace(**{a.dest: unset for a in subparser._actions})
    probe = subparser.parse_args(argv, marked)
    return {a.option_strings[0] for a in subparser._actions if getattr(probe, a.dest) is not unset}


def _check_modes(args, given: set[str]) -> list[_Mode]:
    """Refuse a given flag that a mode that is on leaves unread, and a missing
    flag that one needs, before any handler runs.  Returns the modes that
    are on."""
    on = [mode for mode in MODES if mode.command == args.subcommand and mode.when(args)]
    if hasattr(args, "n") and not any("--n" in mode.unread for mode in on):
        phrase = "without --input" if hasattr(args, "input") else f"in {args.subcommand}"
        on.insert(0, _Mode(args.subcommand, phrase, needs=("--n",)))
    for mode in on:
        for flag in mode.unread:
            if flag in given:
                raise InputError(f"{flag} does not apply {mode.phrase}")
        for flag in mode.needs:
            if getattr(args, flag[2:].replace("-", "_")) is None:
                raise InputError(f"{flag} is required {mode.phrase} (as a flag or a config key)")
    return on


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
    off their defaults, which the mode check treats as given."""
    path = Path(path_text)
    data = _read_json(path, "config ")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        given = _given(registry[args.subcommand], argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            given |= _apply_config(args.config, registry[args.subcommand])
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
        on = _check_modes(args, given)
        if args.out_dir == "":
            raise InputError("--out-dir must name a directory")
        # a run that reads the seed but was given none takes the default, and
        # says so once it has given its output: a refused run prints one line
        seeded = getattr(args, "seed", 0) is None and not any("--seed" in mode.unread for mode in on)
        if seeded:
            args.seed = DEFAULT_SEED
        code = args.func(args)
        if seeded:
            print(f"note: --seed not given, using fixed seed {DEFAULT_SEED}", file=sys.stderr)
        return code
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
