"""Repo-owned correctness checker: AST rules for the repo's real invariants.

The value of this codebase rests on properties no generic linter knows
about: bit-identical agreement between the compiled kernel and the
pure-Python oracle, deterministic tie-breaking and seeding everywhere,
and the rule that every durable write goes through ``repro.store``.
``tools.check`` encodes those invariants as machine-checked rules:

==========  ==========================================================
``REP001``  no ``networkx`` import under ``src/repro/decode/``,
            ``src/repro/codes/`` or ``src/repro/deform/``
``REP002``  durable writes route through ``repro.store.atomic``
``REP003``  no global-state RNG in ``src/repro`` (``Generator``/
            ``SeedSequence`` plumbing only)
``REP004``  no ``argpartition`` / unordered-set iteration feeding
            ordered decode computation
``REP005``  no ``pickle.load`` outside the checksum-verified store path
``REP006``  no wall-clock-derived seeds or fork-unsafe pool primitives
``REP007``  no axis-0 ``np.unique`` on byte-wide syndrome rows in
            ``src/repro/decode/`` (dedup on packed words)
``REP008``  worker-count parameters are spelled ``workers=``
``REP009``  ``json.dump``/``json.dumps`` under ``src/`` and
            ``benchmarks/`` pass ``allow_nan=False`` (strict JSON)
``REP010``  nothing under ``src/`` outside ``sim/circuit.py``
            mutates ``Circuit.instructions``
==========  ==========================================================

Run it over the tree with ``python -m tools.check src/ tests/
benchmarks/``.  Findings print as ``path:line:col: REPNNN message``;
the exit status is 1 when any finding survives, 0 on a clean tree.

Suppressions are per-line and per-rule::

    candidates = np.argpartition(w, k)  # repcheck: ignore[REP004]

or file-wide (anywhere in the file, its own comment line)::

    # repcheck: file-ignore[REP001]

``ignore`` with no bracket list suppresses every rule on that line —
prefer the bracketed form so suppressions stay auditable.  The rule
catalogue, each rule's invariant and the rationale live in
``docs/ARCHITECTURE.md`` under "Correctness tooling".
"""

from tools.check.engine import Finding, check_source, iter_python_files, run_paths
from tools.check.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "check_source",
    "iter_python_files",
    "run_paths",
]
