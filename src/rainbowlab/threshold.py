"""Threshold experiments: sampled instances, exact rainbow search, grids, fits.

An instance is an m-edge subgraph of K_n with uniformly colored edges.  The
search decides exactly whether it contains a (rainbow) k-th power of a
Hamilton cycle.  Three sound prefilters answer "absent" with 0 nodes: fewer
than kn edges, a vertex of degree below 2k, or (for a rainbow power) fewer
than kn distinct colors.  Otherwise it backtracks over vertex sequences:
vertex 0 is pinned first, reflection is broken by requiring the second vertex
to precede the last, and a candidate must be joined to every placed vertex it
shares a power edge with: its back-edges, plus its wrap-around edges once both
endpoints are placed.  Each edge carries one label bit (its color, or its
pair id when colors do not matter), so one mask test checks that the new
edges are fresh and pairwise distinct.  A node is a placement that passed
these checks; a node budget turns the verdict into "unknown" rather than ever
guessing.

Grid runs fan trials out over a process pool; every trial derives its
generator from (master seed, point index, trial index), and rows are reduced
in canonical order, so the emitted CSV is byte-identical no matter how many
workers ran.  Wall-clock timings are therefore kept out of the canonical
outputs unless explicitly requested.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .errors import BudgetError, InputError
from .hypergraph import pair_id, pair_of
from .seeding import make_rng

__all__ = [
    "Instance",
    "TrialResult",
    "ExperimentConfig",
    "GridRow",
    "GridResults",
    "FailureFit",
    "wilson_interval",
    "sample_instance",
    "rainbow_power_search",
    "run_grid",
    "fit_failure_constant",
    "emit_report",
    "read_instance_text",
    "format_instance_text",
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
        if self.n < 2 or self.k < 1 or self.q < 1:
            raise InputError(f"bad instance parameters n={self.n} k={self.k} q={self.q}")
        big_n = self.n * (self.n - 1) // 2
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
    big_n = n * (n - 1) // 2
    if not 0 <= m <= big_n:
        raise InputError(f"m={m} out of range 0..{big_n}")
    ids = sorted(rng.sample(range(big_n), m))
    return Instance(n, k, q, tuple((e, rng.randrange(q)) for e in ids))


@dataclass(frozen=True)
class TrialResult:
    """Verdict of one search: found is None when the budget ran out."""

    found: bool | None
    nodes: int
    elapsed: float
    budget_exhausted: bool
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
    t0 = time.perf_counter()
    n, k = inst.n, inst.k
    if n < 2 * k + 2:
        raise InputError(f"need n >= 2k+2 = {2 * k + 2}, got n={n}")
    if budget < 1:
        raise InputError(f"node budget must be >= 1, got {budget}")

    # adjacency bitmasks and one label bit per edge: its color, or its pair
    # id when colors do not matter (a power never repeats a pair, so those
    # labels never collide); a zero label marks an absent edge
    adj = [0] * n
    label = [[0] * n for _ in range(n)]
    palette = 0
    for eid, c in inst.edge_colors:
        u, v = pair_of(eid)
        if v >= n:
            raise InputError(f"element id {eid} is no edge slot of K_{n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        bit = 1 << (c if require_rainbow else eid)
        label[u][v] = label[v][u] = bit
        palette |= bit

    # sound pruning: a k-th power is 2k-regular with kn edges carrying kn
    # distinct labels (vacuous without colors, where labels are the m edges)
    if (
        inst.m < k * n
        or palette.bit_count() < k * n
        or any(adj[v].bit_count() < 2 * k for v in range(n))
    ):
        return TrialResult(False, 0, time.perf_counter() - t0, False)

    # per level: positions of the placed vertices joined to the new vertex by
    # a power edge (back-edges, then wrap-around edges once level >= n-k);
    # the candidate mask demands all of them, so presence needs no re-check
    links = [
        tuple(range(level - 1, max(level - k, 0) - 1, -1)) + tuple(range(level + k - n + 1))
        for level in range(n)
    ]

    seq = [0] * n
    cand = [0] * n
    placed_labels = [0] * n
    used = 1
    used_labels = 0
    nodes = 0
    level = 1
    cand[1] = adj[0] & ~used
    link = links[1]

    while True:
        avail = cand[level]
        if not avail:
            level -= 1
            if level == 0:
                return TrialResult(False, nodes, time.perf_counter() - t0, False)
            used ^= 1 << seq[level]
            used_labels ^= placed_labels[level]
            link = links[level]
            continue
        low = avail & -avail
        cand[level] = avail ^ low
        v = low.bit_length() - 1

        # the new power edges must carry fresh, pairwise distinct labels
        row = label[v]
        new = 0
        for i in link:
            new |= row[seq[i]]
        if new & used_labels or new.bit_count() != len(link):
            continue

        nodes += 1
        if nodes > budget:
            return TrialResult(None, nodes, time.perf_counter() - t0, True)
        seq[level] = v
        if level == n - 1:
            witness = tuple(seq)
            _revalidate(inst, witness, require_rainbow)
            return TrialResult(True, nodes, time.perf_counter() - t0, False, witness)
        used |= low
        used_labels |= new
        placed_labels[level] = new
        level += 1
        link = links[level]
        mask = ~used
        for i in link:
            mask &= adj[seq[i]]
        if level == n - 1:
            mask &= -(1 << seq[1])  # reflection: the last vertex follows the second
        cand[level] = mask


# ----------------------------------------------------------------------------
# grids

def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputError("Wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise InputError(f"successes {successes} out of range 0..{trials}")
    p_hat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p_hat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentConfig:
    """One (n, k, q) with a grid of exposure sizes, given as C values or m values.

    A C value maps to m = min(N, ceil(C * N / n^(1/k))).
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
        if self.n < 2 * self.k + 2:
            raise InputError(f"need n >= 2k+2 = {2 * self.k + 2}, got n={self.n}")
        big_n = self.n * (self.n - 1) // 2
        if self.c_grid is not None:
            if any(c <= 0 for c in self.c_grid):
                raise InputError("C values must be positive")
        else:
            for m in self.m_grid:
                if not 0 <= m <= big_n:
                    raise InputError(f"m={m} out of range 0..{big_n}")

    @property
    def n_slots(self) -> int:
        return self.n * (self.n - 1) // 2

    def points(self) -> list[tuple[float, int]]:
        """(C, m) per grid point, sorted canonically by (m, C)."""
        kappa_hat = self.n ** (1 / self.k)
        out = []
        if self.c_grid is not None:
            for c in self.c_grid:
                m = min(self.n_slots, math.ceil(c * self.n_slots / kappa_hat))
                out.append((c, m))
        else:
            for m in self.m_grid:
                out.append((m * kappa_hat / self.n_slots, m))
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


@dataclass(frozen=True)
class GridResults:
    config: dict
    rows: tuple[GridRow, ...]

    def to_json(self, timing: bool = False) -> dict:
        rows = []
        for row in self.rows:
            lo, hi = row.wilson()
            rows.append(
                {
                    "n": row.n,
                    "k": row.k,
                    "q": row.q,
                    "m": row.m,
                    "C": row.C,
                    "trials": row.trials,
                    "decided": row.decided,
                    "successes": row.successes,
                    "rate": row.rate,
                    "wilson_lo": lo,
                    "wilson_hi": hi,
                    "unknown": row.unknown,
                    "mean_nodes": row.mean_nodes,
                    "mean_ms": row.mean_ms if timing else 0.0,
                    "seed": row.seed,
                }
            )
        return {"config": self.config, "timing": timing, "rows": rows}

    @classmethod
    def from_json(cls, data: dict) -> "GridResults":
        """Inverse of to_json.  rate and the Wilson bounds are derived, so they
        are not read back; a summary without mean_ms restores it as 0.0.
        Raises KeyError or TypeError when a field is missing or misshapen."""
        names = [f.name for f in fields(GridRow) if f.name != "mean_ms"]
        rows = tuple(
            GridRow(**{name: row[name] for name in names}, mean_ms=row.get("mean_ms", 0.0))
            for row in data["rows"]
        )
        return cls(config=data.get("config", {}), rows=rows)


def _run_task(task: tuple) -> tuple[int, int, int, int, float]:
    """One (point, trial) unit: sample the instance, run the search.

    Top-level so process pools can pickle it.  The generator key folds in the
    point and trial indices, making results independent of scheduling.
    """
    n, k, q, m, budget, require_rainbow, master_seed, point_idx, trial_idx = task
    rng = make_rng(master_seed, point_idx, trial_idx)
    inst = sample_instance(n, k, q, m, rng)
    res = rainbow_power_search(inst, require_rainbow=require_rainbow, budget=budget)
    verdict = -1 if res.found is None else int(res.found)
    return point_idx, trial_idx, verdict, res.nodes, res.elapsed


def run_grid(config: ExperimentConfig) -> GridResults:
    """Run every grid point for the configured number of trials.

    With workers > 1 the (point, trial) tasks are mapped over a spawned
    process pool; results are reduced in task order either way, so the rows
    do not depend on the worker count.
    """
    points = config.points()
    tasks = [
        (
            config.n,
            config.k,
            config.q,
            m,
            config.budget,
            config.require_rainbow,
            config.seed,
            point_idx,
            trial_idx,
        )
        for point_idx, (_, m) in enumerate(points)
        for trial_idx in range(config.trials)
    ]
    if config.workers == 1:
        outcomes = [_run_task(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("spawn")
        chunk = max(1, len(tasks) // (config.workers * 8))
        with ctx.Pool(config.workers) as pool:
            outcomes = pool.map(_run_task, tasks, chunksize=chunk)

    rows = []
    for point_idx, (c_value, m) in enumerate(points):
        mine = [o for o in outcomes if o[0] == point_idx]
        successes = sum(1 for o in mine if o[2] == 1)
        unknown = sum(1 for o in mine if o[2] == -1)
        decided = len(mine) - unknown
        mean_nodes = sum(o[3] for o in mine) / len(mine)
        mean_ms = 1000.0 * sum(o[4] for o in mine) / len(mine)
        rows.append(
            GridRow(
                n=config.n,
                k=config.k,
                q=config.q,
                m=m,
                C=c_value,
                trials=len(mine),
                decided=decided,
                successes=successes,
                unknown=unknown,
                mean_nodes=mean_nodes,
                mean_ms=mean_ms,
                seed=config.seed,
            )
        )
    rows.sort(key=lambda r: (r.n, r.k, r.q, r.m, r.C))
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
# failure-rate fit

@dataclass(frozen=True)
class FailureFit:
    """Least-squares fit of log(failure) = log 2 + omega * log c.

    Only rates strictly inside (0, 1) enter the fit; at least three such
    points are required, otherwise the fit is reported unavailable.
    """

    c: float | None
    residuals: tuple[float, ...]
    used: tuple[tuple[int, float], ...]
    available: bool
    reason: str | None = None


def fit_failure_constant(points: Iterable[tuple[int, float]]) -> FailureFit:
    usable = [(w, f) for w, f in points if 0.0 < f < 1.0]
    if len(usable) < 3:
        return FailureFit(
            c=None,
            residuals=(),
            used=tuple(usable),
            available=False,
            reason=f"need >= 3 failure rates strictly inside (0, 1), have {len(usable)}",
        )
    num = sum(w * (math.log(f) - math.log(2.0)) for w, f in usable)
    den = sum(w * w for w, _ in usable)
    log_c = num / den
    residuals = tuple(math.log(f) - (math.log(2.0) + w * log_c) for w, f in usable)
    return FailureFit(
        c=math.exp(log_c), residuals=residuals, used=tuple(usable), available=True
    )


# ----------------------------------------------------------------------------
# reports

CSV_HEADER = (
    "n,k,q,m,C,trials,decided,successes,rate,wilson_lo,wilson_hi,"
    "unknown,mean_nodes,mean_ms,seed"
)


def _fmt(x: float | None, spec: str = "%.6f") -> str:
    return "" if x is None else spec % x


def format_csv(results: GridResults, timing: bool = False) -> str:
    """Canonical CSV: byte-identical for identical results.

    Wall-clock means are volatile, so mean_ms is written as 0.000 unless
    timing is requested (which marks the file non-reproducible).
    """
    if not results.rows:
        raise InputError("no results to report")
    lines = [CSV_HEADER]
    for row in results.rows:
        lo, hi = row.wilson()
        lines.append(
            ",".join(
                [
                    str(row.n),
                    str(row.k),
                    str(row.q),
                    str(row.m),
                    "%.6g" % row.C,
                    str(row.trials),
                    str(row.decided),
                    str(row.successes),
                    _fmt(row.rate),
                    _fmt(lo),
                    _fmt(hi),
                    str(row.unknown),
                    "%.3f" % row.mean_nodes,
                    "%.3f" % row.mean_ms if timing else "0.000",
                    str(row.seed),
                ]
            )
        )
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
    lines = text.splitlines()
    header: tuple[int, int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise InputError(f"line {lineno}: non-integer token in {line!r}")
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


def format_instance_text(inst: Instance) -> str:
    out = [f"{inst.n} {inst.k} {inst.q}"]
    for eid, c in inst.edge_colors:
        u, v = pair_of(eid)
        out.append(f"{u} {v} {c}")
    return "\n".join(out) + "\n"
