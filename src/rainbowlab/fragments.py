"""Two-round exposure with fragment completion, run exactly at desk scale.

The process: color the ground set, keep the rainbow subfamily H*, expose a
uniform m-subset W0, and for each rainbow member A* find its minimum fragment
T* = B* \\ W0 over members B* contained in A* u W0 (ties to the smallest
member index).  Fragments depend on the coloring and W0 alone; the cutoff
omega enters afterwards, through ClassificationOutcome.bad_count and
.success: members whose fragment has ell = |T*| >= omega are bad, and the
first round succeeds when H* is nonempty and at most half of it is bad.  A
second exposure W1 (independent p1 = m/N coin per remaining element) then
tries to complete the good fragments; a fragment with 1 <= ell < omega is
accepted when it lands inside W1, survives an equalizing coin with
probability (eps1*p1)^(omega-ell), and -- in staged coloring mode -- its
freshly colored elements dodge the r-ell colors its member already carries,
and each other.

Coloring modes.  "upfront" colors everything once, and acceptance is pure
exposure (the member was rainbow from the start).  "staged" recolors W1 on
arrival, which is what the accepted-fragment expectation

    E(nu_R) = sum_ell |R_ell| p1^ell ((q-r+ell)_ell / q^ell) (eps1*p1)^(omega-ell)

accounts for with its color factor; in upfront mode the color factor is
dropped.  No report reads that formula, so it lives in the tests, as the
oracle against which criterion 7(b) checks the third stage.  Both modes are
first-class and every record names its mode.

The omega sweep classifies each trial once and applies the same rule at
every omega.  Trial i draws its coloring and W0 from mix(seed, 0x7377_6565,
i), the same streams at every omega.  A trial whose coloring leaves no
rainbow member is counted as degenerate and enters no rate.  The failure
rates are fitted to 2 * c^omega.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import InputError
from .hypergraph import DISTINCT_SETS, Hypergraph, _mask, _mask_of
from .hampow import PowerParams, enumerate_family, DEFAULT_ORDER_BUDGET
from .rainbow import Coloring, expected_rainbow_count, random_coloring, rainbow_subfamily
from .seeding import make_rng, mix

UPFRONT = "upfront"
STAGED = "staged"

_STREAM_COLOR = 1
_STREAM_W0 = 2
_STREAM_STAGE3 = 3

__all__ = [
    "UPFRONT",
    "STAGED",
    "TwoRoundConfig",
    "FragmentRecord",
    "ClassificationOutcome",
    "ThirdStageOutcome",
    "TwoRoundRecord",
    "FailureFit",
    "default_omega",
    "sample_w0",
    "classify_fragments",
    "run_third_stage",
    "run_two_round",
    "fit_failure_constant",
    "omega_sweep",
]


def default_omega(r: int) -> int:
    """Fragment-size threshold max(1, ceil(r^(1/3)))."""
    return max(1, math.ceil(r ** (1 / 3) - 1e-9))


@dataclass(frozen=True)
class TwoRoundConfig:
    """Parameters of one two-round trial over a Hamilton-power family.

    The exposure size is m = params.exposure(C) = min(N, ceil(C * N /
    kappa_hat)) with the nominal spread kappa_hat = n^(1/k), and p1 = m/N.
    """

    q: int
    C: float
    epsilon1: float
    seed: int
    params: PowerParams
    omega: int | None = None
    coloring_mode: str = UPFRONT
    order_budget: int = DEFAULT_ORDER_BUDGET

    def __post_init__(self):
        if self.q < 1:
            raise InputError(f"palette size q must be >= 1, got {self.q}")
        if not 0 < self.epsilon1 < math.inf:
            raise InputError(f"epsilon1 must be positive and finite, got {self.epsilon1}")
        if self.coloring_mode not in (UPFRONT, STAGED):
            raise InputError(f"unknown coloring mode {self.coloring_mode!r}")
        if self.omega is not None and self.omega < 1:
            raise InputError(f"omega must be >= 1, got {self.omega}")
        # p1 computes m, which checks C
        if self.epsilon1 * self.p1 > 1:
            raise InputError(
                f"epsilon1 * p1 = {self.epsilon1 * self.p1:.6g} exceeds 1; "
                "the equalizing coin needs a probability"
            )

    @property
    def n_elements(self) -> int:
        return self.params.ground_size

    @property
    def r(self) -> int:
        return self.params.r

    @property
    def m(self) -> int:
        return self.params.exposure(self.C)

    @property
    def p1(self) -> float:
        return self.m / self.n_elements

    @property
    def omega_resolved(self) -> int:
        return self.omega if self.omega is not None else default_omega(self.r)

    def family(self) -> Hypergraph:
        return enumerate_family(self.params, budget=self.order_budget).hypergraph(DISTINCT_SETS)

    def echo(self) -> dict:
        return {
            "n": self.params.n,
            "k": self.params.k,
            "q": self.q,
            "C": self.C,
            "m": self.m,
            "p1": self.p1,
            "epsilon1": self.epsilon1,
            "omega": self.omega_resolved,
            "coloring_mode": self.coloring_mode,
            "kappa_hat": self.params.kappa_hat,
            "seed": self.seed,
        }


def sample_w0(n_elements: int, m: int, rng) -> tuple[int, ...]:
    """Uniform m-subset of {0..N-1} as a sorted tuple (seeded partial shuffle)."""
    if not 0 <= m <= n_elements:
        raise InputError(f"m={m} out of range 0..{n_elements}")
    return tuple(sorted(rng.sample(range(n_elements), m)))


@dataclass(frozen=True)
class FragmentRecord:
    """Minimum fragment of one rainbow member against the first exposure;
    classify_fragments lists them in member order.

    t_star is B* \\ W0 for the minimizing member B* (source_index); ell is its
    size.  T* never meets W0, and ell <= |A* \\ W0| since B* = A* is always
    a candidate.
    """

    source_index: int
    t_star: tuple[int, ...]
    ell: int


@dataclass(frozen=True)
class ClassificationOutcome:
    """Minimum fragments of H* against W0, and how many have each size ell.

    The first round's verdict at a cutoff omega is read from the histogram.
    """

    records: tuple[FragmentRecord, ...]
    histogram: dict[int, int]

    def bad_count(self, omega: int) -> int:
        """Members whose fragment has ell >= omega."""
        return sum(count for ell, count in self.histogram.items() if ell >= omega)

    def success(self, omega: int) -> bool:
        """H* is nonempty and at most half of it is bad at omega."""
        return bool(self.records) and 2 * self.bad_count(omega) <= len(self.records)


def classify_fragments(hstar: Hypergraph, w0: Sequence[int]) -> ClassificationOutcome:
    """Minimum fragments for every member of H*, in member order; empty H*
    gives no records.  W0 is checked once, before anything else.

    With residues R = B \\ W0, a member B fits inside A u W0 exactly when
    R_B is inside R_A.  So A's minimum fragment is the first residue inside
    R_A in the order (|R_B|, index), and A itself ends that scan at the latest.
    """
    w0_mask = _mask_of(w0, hstar.ground)
    residues = [b & ~w0_mask for b in hstar.masks]
    ranked = sorted(enumerate(residues), key=lambda item: (item[1].bit_count(), item[0]))
    records = []
    for r_a in residues:
        outside = ~r_a
        idx = next((idx for idx, r_b in ranked if not r_b & outside), -1)
        assert idx >= 0, "A* itself is always a candidate"
        t_star = tuple(x for x in hstar.edges[idx] if not (w0_mask >> x) & 1)
        assert len(t_star) == residues[idx].bit_count()
        records.append(FragmentRecord(source_index=idx, t_star=t_star, ell=len(t_star)))
    return ClassificationOutcome(
        records=tuple(records),
        histogram=dict(sorted(Counter(rec.ell for rec in records).items())),
    )


@dataclass(frozen=True)
class ThirdStageOutcome:
    nu_r: int
    found_rainbow: bool


def run_third_stage(
    config: TwoRoundConfig,
    records: Sequence[FragmentRecord],
    w0: Sequence[int],
    coloring: Coloring,
    rng,
    hstar: Hypergraph,
) -> ThirdStageOutcome:
    """Second exposure plus fragment acceptance.

    Draw order is fixed for reproducibility: W1 coins over the sorted
    complement of W0, then (staged mode) fresh colors over sorted W1, then
    acceptance coins in record order with short-circuit evaluation.
    found_rainbow checks containment of some member of H* in W0 u W1
    directly, independent of the acceptance draws.
    """
    p1 = config.p1
    omega = config.omega_resolved
    eps_p = config.epsilon1 * p1
    q, r = config.q, config.r

    w0_mask = _mask(w0)
    w1 = [x for x in range(config.n_elements) if not (w0_mask >> x) & 1 and rng.random() < p1]
    w1_mask = _mask(w1)

    fresh = {x: rng.randrange(q) for x in w1} if config.coloring_mode == STAGED else {}

    pool = [rec for rec in records if 1 <= rec.ell < omega]

    accepted = 0
    cols = coloring.colors
    for rec in pool:
        if _mask(rec.t_star) & ~w1_mask:
            continue
        if config.coloring_mode == STAGED:
            source = hstar.edges[rec.source_index]
            kept = {cols[x] for x in source if (w0_mask >> x) & 1}
            new = [fresh[x] for x in rec.t_star]
            if len(set(new)) != len(new) or kept.intersection(new):
                continue
        if rng.random() < eps_p ** (omega - rec.ell):
            accepted += 1

    exposed = w0_mask | w1_mask
    found = any(b & ~exposed == 0 for b in hstar.masks)
    return ThirdStageOutcome(nu_r=accepted, found_rainbow=found)


@dataclass(frozen=True)
class TwoRoundRecord:
    """Full deterministic record of one seeded two-round trial."""

    config: dict
    family_size: int
    rainbow_size: int
    expected_rainbow: float
    success: bool
    bad_count: int
    bad_fraction: float | None
    histogram: dict[int, int]
    nu_r: int
    found_rainbow: bool
    mode: str
    degenerate: bool
    early_exit: bool

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "family_size": self.family_size,
            "rainbow_size": self.rainbow_size,
            "expected_rainbow": self.expected_rainbow,
            "success": self.success,
            "bad_count": self.bad_count,
            "bad_fraction": self.bad_fraction,
            "histogram": {str(k): v for k, v in self.histogram.items()},
            "nu_R": self.nu_r,
            "found_rainbow": self.found_rainbow,
            "mode": self.mode,
            "degenerate": self.degenerate,
            "early_exit": self.early_exit,
        }


def _first_round(config: TwoRoundConfig, hg: Hypergraph):
    """Color, keep the rainbow subfamily H*, expose W0 and classify H*: the
    stages run_two_round and omega_sweep share.  Each draws from its own
    stream of config.seed."""
    coloring = random_coloring(config.n_elements, config.q, make_rng(config.seed, _STREAM_COLOR))
    hstar = rainbow_subfamily(hg, coloring)
    w0 = sample_w0(config.n_elements, config.m, make_rng(config.seed, _STREAM_W0))
    return coloring, hstar, w0, classify_fragments(hstar, w0)


def run_two_round(config: TwoRoundConfig) -> TwoRoundRecord:
    """Color, expose, classify, judge the first round at config's omega, and
    (unless a fragment is already complete) run the second exposure.  Each
    stage draws from its own derived stream, so the record is byte-identical
    across replays of the same seed.

    A coloring with no rainbow member is recorded as degenerate: its first
    round fails, and its exposures accept and find nothing.  A fragment with
    ell = 0 means some member already sits inside W0; the trial then exits
    early with found_rainbow set.
    """
    hg = config.family()
    omega = config.omega_resolved
    coloring, hstar, w0, outcome = _first_round(config, hg)
    bad = outcome.bad_count(omega)
    base = dict(
        config=config.echo(),
        family_size=len(hg.edges),
        rainbow_size=len(hstar.edges),
        expected_rainbow=float(expected_rainbow_count(len(hg.edges), config.q, config.r)),
        mode=config.coloring_mode,
        success=outcome.success(omega),
        bad_count=bad,
        bad_fraction=bad / len(hstar.edges) if hstar.edges else None,
        histogram=outcome.histogram,
        degenerate=not hstar.edges,
    )

    if 0 in outcome.histogram:
        return TwoRoundRecord(**base, nu_r=0, found_rainbow=True, early_exit=True)

    rng = make_rng(config.seed, _STREAM_STAGE3)
    stage3 = run_third_stage(config, outcome.records, w0, coloring, rng, hstar=hstar)
    return TwoRoundRecord(**base, nu_r=stage3.nu_r, found_rainbow=stage3.found_rainbow, early_exit=False)


# ----------------------------------------------------------------------------
# the omega sweep and its failure fit

@dataclass(frozen=True)
class FailureFit:
    """Least-squares fit of log(failure) = log 2 + omega * log c.

    Only rates strictly inside (0, 1) enter the fit; at least three such
    points are required, otherwise the fit is reported unavailable.
    """

    c: float | None
    available: bool
    reason: str | None = None


def fit_failure_constant(points: Iterable[tuple[int, float]]) -> FailureFit:
    usable = [(w, f) for w, f in points if 0.0 < f < 1.0]
    if len(usable) < 3:
        reason = f"need >= 3 failure rates strictly inside (0, 1), have {len(usable)}"
        return FailureFit(c=None, available=False, reason=reason)
    num = sum(w * (math.log(f) - math.log(2.0)) for w, f in usable)
    den = sum(w * w for w, _ in usable)
    return FailureFit(c=math.exp(num / den), available=True)


def omega_sweep(config: TwoRoundConfig, omegas: Iterable[int], trials: int) -> dict:
    """First-round failure rate and mean bad count at each distinct omega,
    over trials seeded from config.seed, and the fitted failure constant.

    Each trial is classified once, and every omega reads that one
    classification through bad_count and success.  config.omega is not read.
    Degenerate trials (empty H*) are counted apart and enter no rate; when
    every trial is degenerate the rates are None.
    """
    omegas = sorted(set(omegas))
    if not omegas or omegas[0] < 1 or trials < 1:
        raise InputError(f"a sweep needs omegas >= 1 and trials >= 1, got {omegas} and {trials}")
    hg = config.family()
    # over the trials with a rainbow member (live), summed at each omega
    live, bad, failures = 0, dict.fromkeys(omegas, 0), dict.fromkeys(omegas, 0)
    for i in range(trials):
        trial = replace(config, seed=mix(config.seed, 0x7377_6565, i))
        outcome = _first_round(trial, hg)[3]
        if outcome.records:
            live += 1
            for omega in omegas:
                bad[omega] += outcome.bad_count(omega)
                failures[omega] += not outcome.success(omega)

    rows = []
    for omega in omegas:
        rate, mean_bad = (failures[omega] / live, bad[omega] / live) if live else (None, None)
        rows.append({"omega": omega, "trials": trials, "degenerate": trials - live,
                     "failures": failures[omega], "failure_rate": rate, "mean_bad": mean_bad})
    if live:
        fit = fit_failure_constant((row["omega"], row["failure_rate"]) for row in rows)
    else:
        reason = f"all {trials} trials are degenerate: no coloring left a rainbow member"
        fit = FailureFit(c=None, available=False, reason=reason)
    return {"rows": rows, "fit": {"c": fit.c, "available": fit.available, "reason": fit.reason}}
