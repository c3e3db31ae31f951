"""Build the stored reference answers for a search workload's instance pool.

Usage (from the repository root):

    python3 bench/make_reference.py search-refute
    python3 bench/make_reference.py search-witness

Every pool instance is decided twice: by the package's
``rainbow_power_search`` (which also gives the reference node count) and by
the benchmark's own ``independent_search``.  The two verdicts must agree, and
every witness must pass the benchmark's own check.  Instances whose search
exhausts the default node budget would be recorded as "unknown"; the pools in
``reference/`` hold none.
"""

from __future__ import annotations

import json
import sys
import time

from checkout import import_rainbowlab
from instances import (
    REFERENCE_DIR,
    SEARCH_SPECS,
    edge_colors,
    fingerprint,
    independent_search,
    witness_error,
)


def main(name: str) -> None:
    rl = import_rainbowlab()
    spec = SEARCH_SPECS[name]
    records = []
    t0 = time.perf_counter()
    for index in range(spec.pool_size):
        pairs = edge_colors(spec, index)
        res = rl.rainbow_power_search(rl.Instance(spec.n, spec.k, spec.q, pairs))
        verdict = {True: "found", False: "absent", None: "unknown"}[res.found]
        if res.found is not None and independent_search(spec, pairs) != res.found:
            raise SystemExit(f"{name} instance {index}: the two searches disagree")
        if res.found and witness_error(spec, pairs, res.witness):
            raise SystemExit(f"{name} instance {index}: {witness_error(spec, pairs, res.witness)}")
        records.append(
            {
                "index": index,
                "m": len(pairs),
                "fingerprint": fingerprint(pairs),
                "verdict": verdict,
                "nodes": res.nodes,
            }
        )
        if index % 100 == 99:
            print(f"{name}: {index + 1} instances, {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    out = {
        "workload": name,
        "n": spec.n,
        "k": spec.k,
        "q": spec.q,
        "m_lo": spec.m_lo,
        "m_hi": spec.m_hi,
        "pool_tag": spec.pool_tag,
        "instances": records,
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(out, separators=(",", ":")).replace('},{', '},\n{') + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1])
