"""The REP rule set: one class per repo invariant.

Every rule documents the invariant it enforces and the sanctioned
alternative in its message, because a checker that says only "don't"
trains people to suppress it.  Scoping is by repo-relative path prefix;
the fixture suite under ``tests/fixtures/check/`` pins one failing and
one passing example per rule, and ``tests/test_check.py`` asserts the
real tree is clean.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.check.engine import FileContext, Finding, Rule

__all__ = ["ALL_RULES"]


def _is_call_to(node: ast.AST, names: frozenset[str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
    )


class NoNetworkxInHotPaths(Rule):
    """REP001 — the decode and deformation hot paths own their graph code.

    PR 3 removed ``networkx`` from ``src/repro/decode/`` (the owned
    blossom engine is ~4x faster and deterministically tie-broken).  The
    deformation layer followed: ``codes/distance.py`` computes code
    distance with one ``scipy.sparse.csgraph`` search instead of a
    networkx Dijkstra per vertex, and Algorithm 1 calls it for every
    candidate it scores.  A reintroduced import would silently re-add
    per-call generality cost to those loops.  ``layout/`` may still use
    networkx.
    """

    code = "REP001"
    summary = "no networkx import under src/repro/{decode,codes,deform}/"
    prefixes = ("src/repro/decode/", "src/repro/codes/", "src/repro/deform/")
    message = (
        "networkx import in a hot path; decode/ has its own engines "
        "(decode/blossom.py, decode/graph.py) and codes/ uses "
        "scipy.sparse.csgraph — keep oracle comparisons in tests/"
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(self.prefixes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] == "networkx":
                        yield self.finding(ctx, node, self.message)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and module.split(".", 1)[0] == "networkx":
                    yield self.finding(ctx, node, self.message)


class DurableWritesThroughStore(Rule):
    """REP002 — every durable write goes through ``repro.store``.

    PR 6's crash-safety story (atomic write-temp-then-rename, fsynced
    appends, checksum-verified artifacts) only holds if nothing writes
    around it.  A bare ``open(path, "w")`` can tear on SIGKILL and a
    bare ``pickle.dump`` bypasses the store's checksum header; both
    must route through ``atomic_write_bytes`` / ``atomic_write_text`` /
    ``durable_append`` or an ``ArtifactStore``.
    """

    code = "REP002"
    summary = "durable writes route through repro.store.atomic"

    _WRITE_MODES = frozenset("wax")
    _PATH_WRITERS = frozenset({"write_text", "write_bytes"})

    def applies(self, relpath: str) -> bool:
        return (
            relpath.startswith(("src/", "benchmarks/"))
            and not relpath.startswith("src/repro/store/")
        )

    def _mode_of(self, call: ast.Call) -> str | None:
        for kw in call.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                value = kw.value.value
                return value if isinstance(value, str) else None
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
            value = call.args[1].value
            return value if isinstance(value, str) else None
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.imports.resolve(node.func)
            is_open = (
                isinstance(node.func, ast.Name) and node.func.id == "open"
            ) or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "open"
            )
            if is_open:
                mode = self._mode_of(node)
                if mode is not None and any(c in self._WRITE_MODES for c in mode):
                    yield self.finding(
                        ctx,
                        node,
                        f"bare open(..., {mode!r}) can tear on crash; durable "
                        "files go through repro.store.atomic "
                        "(atomic_write_bytes/atomic_write_text/durable_append)",
                    )
            elif origin == "pickle.dump":
                yield self.finding(
                    ctx,
                    node,
                    "bare pickle.dump bypasses the store's checksum header; "
                    "persist build products through ArtifactStore.put or "
                    "atomic_write_bytes(pickle.dumps(...))",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._PATH_WRITERS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"Path.{node.func.attr}() is a non-atomic durable write; "
                    "route it through repro.store.atomic",
                )


class NoGlobalStateRng(Rule):
    """REP003 — randomness flows through explicit Generator plumbing.

    Global-state RNG (``np.random.<fn>``, stdlib ``random.<fn>``) makes
    results depend on import order and call history, breaking the
    bit-identical resume guarantee of checkpointed sweeps and the
    per-basis ``SeedSequence`` derivation in ``eval/montecarlo.py``.
    Only ``default_rng`` / ``Generator`` / ``SeedSequence`` (and the
    BitGenerator classes they wrap) are allowed.
    """

    code = "REP003"
    summary = "no global-state RNG in src/repro"

    _NUMPY_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )
    _STDLIB_ALLOWED = frozenset({"Random", "SystemRandom"})

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Visiting Attribute/Name references (not Call nodes) catches
        # both direct calls and aliasing assignments like
        # ``draw = np.random.random`` without double-reporting calls.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            origin = ctx.imports.resolve(node)
            if origin is None:
                continue
            parts = origin.split(".")
            if parts[:2] == ["numpy", "random"] and len(parts) == 3:
                if parts[2] not in self._NUMPY_ALLOWED:
                    yield self.finding(
                        ctx,
                        node,
                        f"global-state RNG {origin}; derive a "
                        "np.random.Generator from the experiment's "
                        "SeedSequence and pass it explicitly",
                    )
            elif parts[0] == "random" and len(parts) == 2:
                if parts[1] not in self._STDLIB_ALLOWED:
                    yield self.finding(
                        ctx,
                        node,
                        f"global-state RNG {origin}; stdlib module-level "
                        "randomness is seeded per-process — use the numpy "
                        "Generator plumbing instead",
                    )


class StableOrderInDecode(Rule):
    """REP004 — ordered decode computation never reads unordered order.

    The PR 7 bug class: ``argpartition`` returns ties in an
    implementation-defined order, so the C kernel and the numpy seeder
    silently selected different kNN candidate sets.  The sanctioned
    seam is a stable ``(weight, index)`` argsort
    (``sparse_match.knn_candidates``).  Likewise, iterating a set (or
    materialising one with ``list(set(...))``) feeds hash order into
    whatever consumes the loop — wrap it in ``sorted(...)``.
    """

    code = "REP004"
    summary = "no argpartition / unordered-set iteration in decode"

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(("src/repro/decode/", "src/repro/sim/"))

    def _set_producer(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return _is_call_to(node, frozenset({"set", "frozenset"}))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                is_argpartition = (
                    isinstance(func, ast.Attribute) and func.attr == "argpartition"
                )
                if is_argpartition:
                    yield self.finding(
                        ctx,
                        node,
                        "argpartition orders ties implementation-defined; use "
                        "the stable (weight, index) argsort seam "
                        "(sparse_match.knn_candidates) so compiled and numpy "
                        "paths select identical candidates",
                    )
                elif _is_call_to(node, frozenset({"list", "tuple", "enumerate"})):
                    if len(node.args) == 1 and self._set_producer(node.args[0]):
                        yield self.finding(
                            ctx,
                            node,
                            "materialising a set exposes hash order; use "
                            "sorted(...) so downstream computation sees a "
                            "deterministic sequence",
                        )
            iterables: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if self._set_producer(iterable):
                    yield self.finding(
                        ctx,
                        iterable,
                        "iterating a set feeds hash order into ordered decode "
                        "computation; wrap it in sorted(...)",
                    )


class VerifiedUnpickleOnly(Rule):
    """REP005 — unpickling happens only behind the store's checksum.

    ``pickle.load`` executes arbitrary bytecode from the file it reads;
    the artifact store verifies length + SHA-256 before unpickling and
    quarantines mismatches.  Loading a pickle anywhere else trades that
    guarantee away — including ``np.load(..., allow_pickle=True)``.
    """

    code = "REP005"
    summary = "no pickle.load outside the checksum-verified store path"

    _LOADERS = frozenset({"pickle.load", "pickle.loads", "pickle.Unpickler"})

    def applies(self, relpath: str) -> bool:
        return (
            relpath.startswith(("src/", "benchmarks/"))
            and not relpath.startswith("src/repro/store/")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.imports.resolve(node.func)
            if origin in self._LOADERS:
                yield self.finding(
                    ctx,
                    node,
                    f"{origin} outside repro/store executes unverified bytes; "
                    "load through ArtifactStore (verify-before-unpickle, "
                    "quarantine-and-rebuild)",
                )
                continue
            if origin == "numpy.load":
                for kw in node.keywords:
                    if (
                        kw.arg == "allow_pickle"
                        and isinstance(kw.value, ast.Constant)
                        and bool(kw.value.value)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "np.load(allow_pickle=True) is an unverified "
                            "unpickle; store arrays through ArtifactStore or "
                            "load with allow_pickle=False",
                        )


class DeterministicSeedsAndPools(Rule):
    """REP006 — no wall-clock seeds, no fork-unsafe pool primitives.

    Wall-clock time in a seed path (``time.time``, ``datetime.now``)
    makes runs unreproducible and resume non-bit-identical; the
    sanctioned timer for measurement is ``perf_counter`` and seeds come
    from the experiment's ``SeedSequence``.  ``multiprocessing.Pool``
    and ``ProcessPoolExecutor`` capture open file handles, RNG state
    and locks at fork time with no EOF-based death detection — the
    repo's pool is the pipe-per-shard fork pool in ``decode/base.py``
    (worker death degrades to per-shard serial fallback instead of a
    hang).
    """

    code = "REP006"
    summary = "no wall-clock seeds or fork-unsafe pools in src/repro"

    _WALL_CLOCKS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.date.today",
        }
    )
    _POOLS = frozenset(
        {
            "multiprocessing.Pool",
            "multiprocessing.pool.Pool",
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.process.ProcessPoolExecutor",
        }
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(("src/repro/", "benchmarks/"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.imports.resolve(node.func)
            if origin is None:
                continue
            if origin in self._WALL_CLOCKS:
                yield self.finding(
                    ctx,
                    node,
                    f"{origin}() is wall-clock state: seeds derive from "
                    "SeedSequence, measurements use time.perf_counter; "
                    "suppress only for genuine timestamps",
                )
            elif origin in self._POOLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{origin} captures fork-unsafe resources and hangs on "
                    "worker death; use the pipe-per-shard pool "
                    "(decode/base.py decode_batch(workers=N))",
                )


class WordPackedDedup(Rule):
    """REP007 — batch dedup runs on packed words, not byte rows.

    The PR 9 glue fix: an axis-0 ``np.unique`` over uint8 syndrome
    rows compares ~1.2 kB of bytes per row at d = 9, and was the
    single largest decode line item after the compiled kernel landed.
    ``decode_batch`` now packs rows into uint64 words
    (``utils/gf2.gf2_pack_rows``) before deduplicating — ~64× less
    data per comparison — and unpacks only the unique survivors.  This
    rule flags any axis-0 ``np.unique`` under ``src/repro/decode/``
    whose operand is not identifiably packed (heuristic: some name in
    the array expression contains ``packed`` or ``word``), so the byte
    -row pattern cannot quietly return to the hot path.
    """

    code = "REP007"
    summary = "axis-0 np.unique in decode/ dedups on packed words"

    _PACKED_MARKERS = ("packed", "word")

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/decode/")

    def _looks_packed(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None:
                lowered = name.lower()
                if any(m in lowered for m in self._PACKED_MARKERS):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.imports.resolve(node.func) != "numpy.unique":
                continue
            axis_zero = any(
                kw.arg == "axis"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value == 0
                for kw in node.keywords
            )
            if not axis_zero:
                continue
            if node.args and self._looks_packed(node.args[0]):
                continue
            yield self.finding(
                ctx,
                node,
                "axis-0 np.unique on byte rows scans the full row width "
                "per comparison; pack rows into uint64 words "
                "(utils/gf2.gf2_pack_rows) and dedup on those, unpacking "
                "only the unique survivors (decode/base.py _packed_dedup)",
            )


class CanonicalWorkerSpelling(Rule):
    """REP008 — a worker-count parameter is spelled ``workers``.

    The PR 10 API unification: every layer that fans work across a
    pool — ``decode_batch``, the Monte-Carlo harness, sweeps, the
    decode service — takes the *same* keyword, ``workers=``, so a
    worker count threads through the stack without renaming at each
    boundary.  This rule flags any function *definition* under
    ``src/repro/`` that binds a worker-count parameter under another
    spelling, the retired ``decoder_workers`` alias included.
    Call-site keywords are not flagged: calls into stdlib/third-party
    APIs keep whatever names those APIs use.
    """

    code = "REP008"
    summary = "worker-count parameters are spelled workers="

    _NONCANONICAL = frozenset(
        {
            "decoder_workers",
            "num_workers",
            "n_workers",
            "worker_count",
            "max_workers",
            "n_jobs",
            "num_threads",
            "pool_size",
        }
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
            for param in params:
                if param.arg not in self._NONCANONICAL:
                    continue
                yield self.finding(
                    ctx,
                    param,
                    f"worker-count parameter {param.arg!r}; the canonical "
                    "spelling across the stack is workers=",
                )


class StrictJsonWriters(Rule):
    """REP009 — every JSON writer rejects NaN and infinities.

    By default ``json.dump``/``json.dumps`` write ``NaN``, ``Infinity``
    and ``-Infinity``, which are not JSON: strict parsers (``jq``,
    JavaScript's ``JSON.parse``) reject the whole document.  A stage
    timed at 0 s once put two ``Infinity`` rates into the committed
    ``BENCH_decode.json`` this way.  Every call under ``src/`` and
    ``benchmarks/`` passes ``allow_nan=False``, so a non-finite value
    fails at the writer, next to its source; an undefined figure is
    written as ``None`` (JSON ``null``) instead.
    """

    code = "REP009"
    summary = "json.dump/json.dumps pass allow_nan=False"

    _WRITERS = frozenset({"json.dump", "json.dumps"})

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(("src/", "benchmarks/"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.imports.resolve(node.func)
            if origin not in self._WRITERS:
                continue
            strict = any(
                kw.arg == "allow_nan"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            )
            if not strict:
                yield self.finding(
                    ctx,
                    node,
                    f"{origin} without allow_nan=False writes NaN/Infinity, "
                    "which are not JSON; pass allow_nan=False and write "
                    "None (null) for an undefined figure",
                )


def _names_instructions(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "instructions"


class CircuitInstructionsThroughAppend(Rule):
    """REP010 — only ``sim/circuit.py`` mutates ``Circuit.instructions``.

    ``Circuit.compiled()`` caches the layered program on the instruction
    count, and ``Circuit.append`` enforces what the per-layer updates
    rely on: no qubit twice in an ``H``, ``CX`` or noise instruction,
    and noise probabilities in [0, 1].  A ``circuit.instructions.append``
    (or any other list mutator, item or slice assignment, ``del``,
    ``+=``) under ``src/`` bypasses both, and an edit that keeps the
    length would even be served the stale compiled program.  The check
    is syntactic: it flags those mutations of any attribute named
    ``instructions``.
    """

    code = "REP010"
    summary = "only src/repro/sim/circuit.py mutates Circuit.instructions"

    _MUTATORS = frozenset(
        {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
    )
    message = (
        "mutates Circuit.instructions outside sim/circuit.py, bypassing "
        "Circuit.append's checks and the compiled-program cache; build "
        "circuits with append, the gate helpers and Circuit.replay"
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/") and relpath != "src/repro/sim/circuit.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATORS
                    and _names_instructions(func.value)
                ):
                    yield self.finding(ctx, node, self.message)
                continue
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and _names_instructions(target.value)
                ) or (isinstance(node, ast.AugAssign) and _names_instructions(target)):
                    yield self.finding(ctx, node, self.message)


ALL_RULES: tuple[Rule, ...] = (
    NoNetworkxInHotPaths(),
    DurableWritesThroughStore(),
    NoGlobalStateRng(),
    StableOrderInDecode(),
    VerifiedUnpickleOnly(),
    DeterministicSeedsAndPools(),
    WordPackedDedup(),
    CanonicalWorkerSpelling(),
    StrictJsonWriters(),
    CircuitInstructionsThroughAppend(),
)
