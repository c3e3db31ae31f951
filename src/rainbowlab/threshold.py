"""Threshold experiments: sampled instances, exact rainbow search, grids, reports.

An instance is an m-edge subgraph of K_n with uniformly colored edges.  The
search decides exactly whether it contains a (rainbow) k-th power of a
Hamilton cycle.  Three sound prefilters answer "absent" with 0 nodes: fewer
than kn edges, a vertex of degree below 2k, or (for a rainbow power) fewer
than kn distinct colors.  Otherwise it backtracks over vertex sequences:
vertex 0 is pinned first, reflection is broken by requiring the second vertex
to precede the last, and a candidate must be joined to every placed vertex it
shares a power edge with: its back-edges, plus its wrap-around edges once both
endpoints are placed.  Each edge belongs to one class (its color, or its
pair id when colors do not matter), and an edge grid keeps the edges whose
class is unused, so candidates never carry a used color and only pairwise
distinctness is left to test.  A node is a placement that passed these
checks; a node budget turns the verdict into "unknown" rather than guessing.

Grid runs spread their trials over seeding._fan_out; every trial derives its
generator from (master seed, point index, trial index), and rows are reduced
in canonical order, so the emitted CSV is byte-identical no matter how many
workers ran.  Wall-clock timings are therefore kept out of the canonical
outputs unless explicitly requested.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import InputError
from .hampow import PowerParams
from .hypergraph import _int_lines, pair_id, pair_of
from .seeding import _fan_out, make_rng

__all__ = [
    "Instance",
    "TrialResult",
    "ExperimentConfig",
    "GridRow",
    "GridResults",
    "wilson_interval",
    "sample_instance",
    "rainbow_power_search",
    "run_grid",
    "emit_report",
    "read_instance_text",
]

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class Instance:
    """An edge-colored subgraph of K_n: distinct element ids with colors."""

    n: int
    k: int
    q: int
    edge_colors: tuple[tuple[int, int], ...]  # (element id, color), sorted by id

    def __post_init__(self):
        big_n = PowerParams(self.n, self.k).ground_size
        if self.q < 1:
            raise InputError(f"palette size q must be >= 1, got {self.q}")
        ids = [e for e, _ in self.edge_colors]
        if sorted(set(ids)) != sorted(ids):
            raise InputError("instance edges must be distinct")
        for e, c in self.edge_colors:
            if not 0 <= e < big_n:
                raise InputError(f"element id {e} out of range 0..{big_n - 1}")
            if not 0 <= c < self.q:
                raise InputError(f"color {c} out of range 0..{self.q - 1}")
        object.__setattr__(self, "edge_colors", tuple(sorted(self.edge_colors)))

    @property
    def m(self) -> int:
        return len(self.edge_colors)


def sample_instance(n: int, k: int, q: int, m: int, rng) -> Instance:
    """Uniform m-subset of K_n's edge slots with independent uniform colors."""
    big_n = PowerParams(n, k).ground_size
    if not 0 <= m <= big_n:
        raise InputError(f"m={m} out of range 0..{big_n}")
    if q < 1:
        raise InputError(f"palette size q must be >= 1, got {q}")
    ids = sorted(rng.sample(range(big_n), m))
    return Instance(n, k, q, tuple((e, rng.randrange(q)) for e in ids))


@dataclass(frozen=True)
class TrialResult:
    """Verdict of one search: found is None when the budget ran out."""

    found: bool | None
    nodes: int
    witness: tuple[int, ...] | None = None


def _revalidate(inst: Instance, order: Sequence[int], require_rainbow: bool) -> None:
    """Independent witness check: every power edge present, colors distinct."""
    present = dict(inst.edge_colors)
    n, k = inst.n, inst.k
    cols = []
    for i in range(n):
        for j in range(1, k + 1):
            eid = pair_id(order[i], order[(i + j) % n])
            if eid not in present:
                raise AssertionError(f"witness uses absent edge {pair_of(eid)}")
            cols.append(present[eid])
    if require_rainbow and len(set(cols)) != len(cols):
        raise AssertionError("witness edge colors collide")


def rainbow_power_search(
    inst: Instance, require_rainbow: bool = True, budget: int = 1_000_000
) -> TrialResult:
    """Exact decision: does the instance contain a (rainbow) k-th Hamilton power?

    Never wrong, sometimes undecided: when the node budget is exhausted the
    result carries found=None.  A found witness is re-validated edge by edge
    before being returned, guarding the pruning logic.
    """
    n, k = inst.n, inst.k
    if budget < 1:
        raise InputError(f"node budget must be >= 1, got {budget}")

    # adjacency bitmasks for the degree prefilter
    adj = [0] * n
    for eid, _ in inst.edge_colors:
        u, v = pair_of(eid)
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    # sound pruning: a k-th power is 2k-regular with kn edges in kn distinct
    # classes (colors; without colors the classes are the m edges)
    if (
        inst.m < k * n
        or require_rainbow and len({c for _, c in inst.edge_colors}) < k * n
        or any(adj[v].bit_count() < 2 * k for v in range(n))
    ):
        return TrialResult(False, 0)

    # the edge grid: free holds bits u*n + v and v*n + u while edge uv's class
    # is unused.  A class mask is its edges' grid bits plus tag bit n*n + its
    # rank, so placing a vertex is free ^= the classes of its link edges, and
    # candidates read from free never carry a used color
    nn = n * n
    ends = [(*pair_of(eid), c if require_rainbow else eid) for eid, c in inst.edge_colors]
    classes = {}
    for u, v, key in ends:
        classes[key] = classes.get(key, 1 << (nn + len(classes))) | 1 << (u * n + v) | 1 << (v * n + u)
    label = [[0] * n for _ in range(n)]
    for u, v, key in ends:
        label[u][v] = label[v][u] = classes[key]
    free = sum(classes.values())  # the class masks are disjoint

    # per level: positions of the placed vertices joined to the new vertex by
    # a power edge (back-edges, then wrap-around edges once level >= n-k);
    # the candidate mask demands all of them, so presence needs no re-check
    links = [
        tuple(range(level - 1, max(level - k, 0) - 1, -1)) + tuple(range(level + k - n + 1))
        for level in range(n)
    ]

    seq = [0] * n
    cand = [0] * n
    placed = [0] * n
    unplaced = (1 << n) - 2
    nodes = 0
    level = 1
    cand[1] = free & unplaced
    link = links[1]

    while True:
        avail = cand[level]
        if not avail:
            level -= 1
            if level == 0:
                return TrialResult(False, nodes)
            unplaced ^= 1 << seq[level]
            free ^= placed[level]
            link = links[level]
            continue
        low = avail & -avail
        cand[level] = avail ^ low
        v = low.bit_length() - 1

        # the new power edges are present with unused classes; they must differ
        row = label[v]
        new = 0
        for i in link:
            new |= row[seq[i]]
        if (new >> nn).bit_count() != len(link):
            continue

        nodes += 1
        if nodes > budget:
            return TrialResult(None, nodes)
        seq[level] = v
        if level == n - 1:
            witness = tuple(seq)
            _revalidate(inst, witness, require_rainbow)
            return TrialResult(True, nodes, witness)
        unplaced ^= low
        free ^= new
        placed[level] = new
        level += 1
        link = links[level]
        mask = unplaced
        for i in link:
            mask &= free >> seq[i] * n
        if level == n - 1:
            mask &= -(1 << seq[1])  # reflection: the last vertex follows the second
        cand[level] = mask


# ----------------------------------------------------------------------------
# grids

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputError("Wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise InputError(f"successes {successes} out of range 0..{trials}")
    p_hat = successes / trials
    z = WILSON_Z
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p_hat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentConfig:
    """One (n, k, q) with a grid of exposure sizes, given as C values or m values.

    A C value maps to m = PowerParams(n, k).exposure(C), and an m value to
    C = m * n^(1/k) / N.
    """

    n: int
    k: int
    q: int
    trials: int
    seed: int
    c_grid: tuple[float, ...] | None = None
    m_grid: tuple[int, ...] | None = None
    budget: int = 1_000_000
    workers: int = 1
    require_rainbow: bool = True

    def __post_init__(self):
        PowerParams(self.n, self.k)
        if (self.c_grid is None) == (self.m_grid is None):
            raise InputError("provide exactly one of c_grid or m_grid")
        if self.c_grid is not None and not self.c_grid:
            raise InputError("c_grid must be nonempty")
        if self.m_grid is not None and not self.m_grid:
            raise InputError("m_grid must be nonempty")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise InputError(f"workers must be >= 1, got {self.workers}")
        if self.q < 1:
            raise InputError(f"palette size q must be >= 1, got {self.q}")
        self.points()  # checks every C or m value

    def points(self) -> list[tuple[float, int]]:
        """(C, m) per grid point, sorted canonically by (m, C)."""
        params = PowerParams(self.n, self.k)
        if self.c_grid is not None:
            out = [(c, params.exposure(c)) for c in self.c_grid]
        else:
            big_n = params.ground_size
            out = []
            for m in self.m_grid:
                if not 0 <= m <= big_n:
                    raise InputError(f"m={m} out of range 0..{big_n}")
                out.append((m * params.kappa_hat / big_n, m))
        return sorted(set(out), key=lambda p: (p[1], p[0]))


@dataclass(frozen=True)
class GridRow:
    n: int
    k: int
    q: int
    m: int
    C: float
    trials: int
    decided: int
    successes: int
    unknown: int
    mean_nodes: float
    mean_ms: float  # measured wall time; excluded from canonical outputs
    seed: int

    @property
    def rate(self) -> float | None:
        return self.successes / self.decided if self.decided else None

    def wilson(self) -> tuple[float | None, float | None]:
        if not self.decided:
            return None, None
        return wilson_interval(self.successes, self.decided)

    def to_json(self, timing: bool = False) -> dict:
        """One summary row; its keys, in order, are also the CSV columns."""
        lo, hi = self.wilson()
        return {
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "m": self.m,
            "C": self.C,
            "trials": self.trials,
            "decided": self.decided,
            "successes": self.successes,
            "rate": self.rate,
            "wilson_lo": lo,
            "wilson_hi": hi,
            "unknown": self.unknown,
            "mean_nodes": self.mean_nodes,
            "mean_ms": self.mean_ms if timing else 0.0,
            "seed": self.seed,
        }


# Python types of the JSON values in a grid summary, keyed by the GridRow
# annotations and two container names; a bool never passes as a number.
_JSON_TYPES = {"int": int, "float": (int, float), "a JSON object": dict, "a JSON list": list}


def _typed(value, expected: str, what: str):
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[expected]):
        raise TypeError(f"{what} must be {expected}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class GridResults:
    config: dict
    rows: tuple[GridRow, ...]

    def to_json(self, timing: bool = False) -> dict:
        rows = [row.to_json(timing) for row in self.rows]
        return {"config": self.config, "timing": timing, "rows": rows}

    @classmethod
    def from_json(cls, data: dict) -> "GridResults":
        """Inverse of to_json.  rate and the Wilson bounds are derived, so they
        are not read back; a summary without mean_ms restores it as 0.0.
        Raises KeyError when a field is missing and TypeError when one has the
        wrong JSON type."""
        _typed(data, "a JSON object", "the summary")
        config = _typed(data.get("config", {}), "a JSON object", "config")
        rows = []
        for i, row in enumerate(_typed(data["rows"], "a JSON list", "rows")):
            _typed(row, "a JSON object", f"row {i}")
            values = {}
            for f in fields(GridRow):
                value = row.get(f.name, 0.0) if f.name == "mean_ms" else row[f.name]
                values[f.name] = _typed(value, f.type, f"row {i} field {f.name!r}")
            rows.append(GridRow(**values))
        return cls(config=config, rows=tuple(rows))


def _run_tasks(config: ExperimentConfig, tasks: list[tuple[int, int, int]]) -> list[tuple[int, int, float]]:
    """For each (point index, m, trial index) task: sample the instance, run
    the search, and give (verdict, nodes, seconds), verdict -1 when undecided.

    Top-level so process pools can pickle it.  The generator key folds in the
    point and trial indices, making results independent of scheduling.
    """
    out = []
    for point_idx, m, trial_idx in tasks:
        rng = make_rng(config.seed, point_idx, trial_idx)
        inst = sample_instance(config.n, config.k, config.q, m, rng)
        t0 = time.perf_counter()
        res = rainbow_power_search(inst, require_rainbow=config.require_rainbow, budget=config.budget)
        out.append((-1 if res.found is None else int(res.found), res.nodes, time.perf_counter() - t0))
    return out


def run_grid(config: ExperimentConfig) -> GridResults:
    """Run every grid point for the configured number of trials.

    The (point, trial) tasks are dealt into w = min(workers, tasks) strided
    blocks, tasks[j::w], which seeding._fan_out runs; striding spreads each
    point's trials over every block, so a costly point loads them evenly.
    Each task seeds its own generator and the outcomes go back in task
    order, so point p owns the slice of trials p*T .. (p+1)*T - 1, and the
    rows do not depend on the worker count or on where the blocks ran.
    """
    points = config.points()
    trials = config.trials
    tasks = [(point_idx, m, trial_idx) for point_idx, (_, m) in enumerate(points) for trial_idx in range(trials)]
    w = min(config.workers, len(tasks))
    parts = _fan_out(functools.partial(_run_tasks, config), [tasks[j::w] for j in range(w)])
    outcomes = [parts[i % w][i // w] for i in range(len(tasks))]

    rows = []
    for point_idx, (c_value, m) in enumerate(points):
        mine = outcomes[point_idx * trials:(point_idx + 1) * trials]
        verdicts = [o[0] for o in mine]
        unknown = verdicts.count(-1)
        rows.append(
            GridRow(
                n=config.n,
                k=config.k,
                q=config.q,
                m=m,
                C=c_value,
                trials=trials,
                decided=trials - unknown,
                successes=verdicts.count(1),
                unknown=unknown,
                mean_nodes=sum(o[1] for o in mine) / trials,
                mean_ms=1000.0 * sum(o[2] for o in mine) / trials,
                seed=config.seed,
            )
        )
    echo = {
        "n": config.n,
        "k": config.k,
        "q": config.q,
        "trials": config.trials,
        "seed": config.seed,
        "budget": config.budget,
        "workers": config.workers,
        "require_rainbow": config.require_rainbow,
        "grid": [{"C": c, "m": m} for c, m in points],
    }
    return GridResults(config=echo, rows=tuple(rows))


# ----------------------------------------------------------------------------
# reports

# printf spec per CSV column; the integer columns are written with str().
_CSV_SPECS = {
    "C": "%.6g",
    "rate": "%.6f",
    "wilson_lo": "%.6f",
    "wilson_hi": "%.6f",
    "mean_nodes": "%.3f",
    "mean_ms": "%.3f",
}


def _csv_cell(key: str, value) -> str:
    if value is None:
        return ""
    spec = _CSV_SPECS.get(key)
    return str(value) if spec is None else spec % value


def format_csv(results: GridResults, timing: bool = False) -> str:
    """Canonical CSV of the summary rows: byte-identical for identical results.

    Wall-clock means are volatile, so mean_ms is written as 0.000 unless
    timing is requested (which marks the file non-reproducible).
    """
    if not results.rows:
        raise InputError("no results to report")
    rows = [row.to_json(timing) for row in results.rows]
    lines = [",".join(rows[0])]
    lines += [",".join(_csv_cell(key, value) for key, value in row.items()) for row in rows]
    return "\n".join(lines) + "\n"


def format_svg(results: GridResults) -> str:
    """Minimal deterministic SVG: one rate-vs-C polyline per (n, k, q)."""
    width, height, margin = 640, 400, 50
    groups: dict[tuple[int, int, int], list[GridRow]] = {}
    for row in results.rows:
        groups.setdefault((row.n, row.k, row.q), []).append(row)

    xs = [row.C for row in results.rows]
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0

    def x_px(c: float) -> float:
        return margin + (c - x_lo) / span * (width - 2 * margin)

    def y_px(rate: float) -> float:
        return height - margin - rate * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">C</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})">success rate</text>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    for gi, (key, rows) in enumerate(sorted(groups.items())):
        pts = [
            (x_px(row.C), y_px(row.rate))
            for row in sorted(rows, key=lambda r: r.C)
            if row.rate is not None
        ]
        if not pts:
            continue
        coords = " ".join("%.2f,%.2f" % p for p in pts)
        stroke = palette[gi % len(palette)]
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{stroke}"/>')
        for px, py in pts:
            parts.append(f'<circle cx="%.2f" cy="%.2f" r="3" fill="{stroke}"/>' % (px, py))
        n, k, q = key
        parts.append(
            f'<text x="{width - margin}" y="{margin + 14 * gi}" text-anchor="end" '
            f'font-size="11" fill="{stroke}">n={n} k={k} q={q}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(results: GridResults, out_dir, svg: bool = True, timing: bool = False) -> list:
    """Write results.csv, summary.json, and optionally curves.svg under out_dir."""
    import json
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    csv_path = out / "results.csv"
    csv_path.write_text(format_csv(results, timing=timing))
    paths.append(csv_path)
    json_path = out / "summary.json"
    json_path.write_text(
        json.dumps(results.to_json(timing=timing), indent=2, sort_keys=True) + "\n"
    )
    paths.append(json_path)
    if svg:
        svg_path = out / "curves.svg"
        svg_path.write_text(format_svg(results))
        paths.append(svg_path)
    return paths


# ----------------------------------------------------------------------------
# instance files: "n k q" header, then "u v color" per edge

def read_instance_text(text: str) -> Instance:
    header: tuple[int, int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, line, values in _int_lines(text):
        if header is None:
            if len(values) != 3:
                raise InputError(f"line {lineno}: expected header 'n k q', got {line!r}")
            header = (values[0], values[1], values[2])
            continue
        if len(values) != 3:
            raise InputError(f"line {lineno}: expected 'u v color', got {line!r}")
        u, v, c = values
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop {u}")
        edges.append((pair_id(u, v), c))
    if header is None:
        raise InputError("line 1: missing header 'n k q'")
    try:
        return Instance(header[0], header[1], header[2], tuple(edges))
    except InputError as exc:
        raise InputError(f"invalid instance: {exc}") from exc
