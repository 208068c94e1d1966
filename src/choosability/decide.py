"""Decision procedures built on truncated product runs.

Every problem takes one path.  Exact reductions delete vertices whose
lists are too long or single, split the rest into components and
refute Gallai trees.  On each component left, the standard test looks
for any surviving monomial of full degree, which certifies
choosability.  The extended path keeps tight-marker terms, turns every
group with a common degree base into a linear constraint on the 0/1
characteristic vectors of colors, and works through feasible vectors
to candidate list assignments (deletable edges are only reported).
Each goes to the coloring search as the pattern search finds it, and
the first one that cannot be colored ends the search; when every one
colors, or there is none, the component is choosable.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import oracle
from .graphs import DEFAULT_HEURISTIC, HEURISTICS, Problem, VertexOrdering
from .graphs import blocks, order_vertices
from .poly import (
    DEFAULT_BRANCH_LIMIT,
    WITNESS_SPLIT,
    CoefficientOverflow,
    check_limit,
    run_truncated_product,
    unpack_terms,
)

P_FIELD = (1 << 31) - 1
# the feasible scan's moduli, as many of them as a row needs
SCAN_PRIMES = (P_FIELD, (1 << 31) - 19, (1 << 31) - 61)

CHOOSABLE = "CHOOSABLE"
NOT_CHOOSABLE = "NOT_CHOOSABLE"
UNKNOWN = "UNKNOWN"

MODES = ("standard", "pipeline")
DEFAULT_PATTERN_CAP = 100
# The most free entries (n - rank) the feasible scan takes; a pass of it
# holds at most 2^25 uint32 sums, 128 MB.
DEFAULT_FEASIBLE_CAP = 25


@dataclass(frozen=True)
class Settings:
    """The settings of one ``pipeline_decide`` run.

    The degree count and the standard stage run first; mode "standard"
    stops after them, and "pipeline" goes on when they find no witness.
    The matching prune (``run_truncated_product``) acts on the standard
    stage.  The heuristic must be one of ``HEURISTICS``; it defaults to
    AUTO, which picks an ordering per problem.  The branch limit is None
    or an int >= 1, the pattern cap an int >= 1.  Every setting is checked
    here, as the reductions may settle a problem without using them.
    """

    mode: str = "pipeline"
    heuristic: str = DEFAULT_HEURISTIC
    branch_limit: int | None = DEFAULT_BRANCH_LIMIT
    pattern_cap: int = DEFAULT_PATTERN_CAP
    prune_matching: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % ", ".join(MODES))
        if self.heuristic not in HEURISTICS:
            raise ValueError("unknown heuristic %r" % (self.heuristic,))
        object.__setattr__(self, "branch_limit",
                           check_limit(self.branch_limit, "branch limit", none_ok=True))
        object.__setattr__(self, "pattern_cap", check_limit(self.pattern_cap, "pattern cap"))


class FeasibleSearchTooLarge(Exception):
    """The 0/1 solution scan would exceed the vertex cap."""


class PatternCapExceeded(Exception):
    """More candidate assignments are needed than the configured cap."""

    def __init__(self, cap):
        super().__init__("more than %d assignment patterns" % cap)
        self.cap = cap


# What a stage that cannot finish raises, and the UNKNOWN reason it gives
_GIVE_UPS = {CoefficientOverflow: "Overflow", PatternCapExceeded: "TooManyPatterns",
             FeasibleSearchTooLarge: "FeasibleSearchTooLarge"}


@dataclass(frozen=True)
class ConstraintRow:
    """One linear constraint: sum_v row[v] * chi(v) = 0.

    base is the shared degree vector of the tight monomials that produced
    the row; row[v] is the coefficient of the monomial tight at v.
    """

    base: tuple[int, ...]
    row: tuple[int, ...]


class ConstraintBasis:
    """Retained independent constraint rows.

    Rows are kept as exact integer vectors; only the independence test
    runs over the prime field, so a dependent-looking row is dropped but
    every retained row is exact.  Rows enter only through ``extend``,
    which keeps ``_pivots`` and ``_reduced``, the rows' reduced echelon
    form mod p in insertion order, in step with them; the feasible scan
    reads that form.  ``offered`` counts the rows ``extend`` tested.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[ConstraintRow] = []
        self.offered = 0
        self._pivots: list[int] = []
        self._reduced = np.zeros((0, n), dtype=np.int64)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, base, row) -> bool:
        """Offer one row; returns whether the rank rose."""
        rank = self.rank
        self.extend([base], [row])
        return self.rank > rank

    def extend(self, bases, rows) -> bool:
        """Offer the int64 rows in order, up to rank n; returns whether it
        got there.  All rows are reduced mod p at once; each one still
        nonzero is made monic and clears its pivot from the rest and from
        the echelon.  Residues stay below p < 2^31, so every product is exact in int64."""
        todo = np.asarray(rows, dtype=np.int64).reshape(len(rows), self.n) % P_FIELD
        for pivot, evec in zip(self._pivots, self._reduced):
            todo = _eliminate(todo, pivot, evec)
        work, i = np.concatenate((todo, self._reduced)), 0  # the rows offered, then the echelon
        while self.rank < self.n:
            live, columns = work[i : len(todo)].nonzero()  # row-major: the first live row first
            if not len(live):
                self.offered += len(todo)
                return False
            i, pivot = i + int(live[0]), int(columns[0])
            evec = work[i] * pow(int(work[i, pivot]), -1, P_FIELD) % P_FIELD
            work = np.concatenate((_eliminate(work, pivot, evec), evec[None]))
            self._pivots.append(pivot)
            self._reduced = work[len(todo) :]
            self.rows.append(ConstraintRow(tuple(map(int, bases[i])), tuple(map(int, rows[i]))))
            i += 1
        self.offered += i
        return True

    def satisfied_by(self, chi) -> bool:
        """Exact integer check of every retained row."""
        return all(
            sum(r * c for r, c in zip(cr.row, chi)) == 0 for cr in self.rows
        )


def _eliminate(vecs, pivot, evec):
    """Clear column ``pivot`` of the residues ``vecs`` with a monic row."""
    return (vecs - vecs[:, pivot, None] * evec) % P_FIELD


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: dict | None = None
    reason: str | None = None
    details: dict = field(default_factory=dict)


class _FirstTermSink:
    """Stops the run at the first delivery, keeping its largest term.

    Branches arrive largest processed prefix first and batches are sorted
    ascending, so the last term of the first delivery is the largest
    surviving monomial of the whole run, whatever the branch limit.
    """

    def __init__(self):
        self.witness = None

    def __call__(self, layout, terms):
        self.witness = (layout.degrees(terms.keys[-1]), int(terms.coeffs[-1]))
        return True


class _ConstraintSink:
    """Accumulates constraint rows; stops once the rows already pin every
    characteristic vector to zero.

    Each tight group (marked terms sharing one degree base) gives a row;
    the marker is the lowest digit, so a group's terms are consecutive.
    Unmarked terms, which the standard stage finds first, are skipped.
    """

    def __init__(self, n: int):
        self.basis = ConstraintBasis(n)

    def __call__(self, layout, terms):
        degrees, markers, coeffs = unpack_terms(layout, terms)
        marked = markers >= 0
        degrees, markers, coeffs = degrees[marked], markers[marked], coeffs[marked]
        starts = np.ones(len(coeffs), dtype=bool)
        starts[1:] = np.any(degrees[1:] != degrees[:-1], axis=1)
        rows = np.zeros((np.count_nonzero(starts), layout.problem.n), dtype=np.int64)
        rows[np.cumsum(starts) - 1, markers] = coeffs
        return self.basis.extend(degrees[starts], rows)


def standard_alon_tarsi(
    p: Problem,
    ordering: VertexOrdering | None = None,
    branch_limit: int | None = DEFAULT_BRANCH_LIMIT,
    prune_matching: bool = False,
):
    """(witness, stats): the largest surviving full-degree monomial, as
    (f, coefficient), or None, and the run stats.  The run splits past
    min(branch_limit, WITNESS_SPLIT) terms, or not at all when it is None."""
    if ordering is None:
        ordering = order_vertices(p, DEFAULT_HEURISTIC)
    if branch_limit is not None:
        branch_limit = min(check_limit(branch_limit, "branch limit"), WITNESS_SPLIT)
    sink = _FirstTermSink()
    _, stats = run_truncated_product(
        p,
        ordering,
        mode="standard",
        branch_limit=branch_limit,
        sink=sink,
        prune_matching=prune_matching,
    )
    return sink.witness, stats


def collect_constraints(
    p: Problem,
    ordering: VertexOrdering | None = None,
    branch_limit: int | None = DEFAULT_BRANCH_LIMIT,
):
    """Run the tight-marker product; returns (basis, stats), the basis of
    the independent constraint rows it gave."""
    if ordering is None:
        ordering = order_vertices(p, DEFAULT_HEURISTIC)
    sink = _ConstraintSink(p.n)
    _, stats = run_truncated_product(
        p, ordering, mode="extended", branch_limit=branch_limit, sink=sink
    )
    return sink.basis, stats


def subset_sums(residues):
    """Sums mod p of residues[..., j] over the bits j of each mask, by mask on the last axis."""
    sums = np.zeros(residues.shape[:-1] + (1 << residues.shape[-1],), dtype=np.uint32)
    for j in range(residues.shape[-1]):
        block = sums[..., 1 << j : 2 << j]
        np.add(sums[..., : 1 << j], residues[..., j : j + 1], out=block)  # below 2p < 2^32
        np.minimum(block, block - P_FIELD, out=block)  # block - p wraps past block if below p
    return sums


def enumerate_feasible_vectors(
    basis: ConstraintBasis, n: int, cap: int = DEFAULT_FEASIBLE_CAP
):
    """All chi in {0,1}^n satisfying every retained row exactly, as the
    int64 array of their masks (bit v set when chi(v) = 1), ascending: the
    free entries' assignments in the reduced echelon form mod p the basis
    keeps that make every pivot 0 or 1, by subset sums, at most 2^cap to a
    pass, then modulo further ``SCAN_PRIMES`` for a row whose absolute
    values sum to p or more.  Raises FeasibleSearchTooLarge past 63 vertices
    or cap free entries, or when the sums cannot be allocated or the primes
    do not cover a row."""
    free = sorted(set(range(n)).difference(basis._pivots))
    if n > 63 or len(free) > cap:
        raise FeasibleSearchTooLarge("n=%d, %d free entries, cap %d" % (n, len(free), cap))
    step = max(1, (1 << cap) >> len(free))
    passes = [slice(i, i + step) for i in range(0, basis.rank, step)]
    residues = (-basis._reduced[:, free] % P_FIELD).astype(np.uint32)  # sum to chi(pivot) mod p
    try:
        keep = np.ones(1 << len(free), dtype=bool)
        for part in passes:
            keep &= ((values := subset_sums(residues[part])) <= 1).all(axis=0)
        found = np.flatnonzero(keep)
        bits = sum(np.left_shift((values if part is passes[-1] else subset_sums(residues[part]))[
            :, found], np.array(basis._pivots)[part, None]).sum(axis=0) for part in passes)
        for pivot in sorted(basis._pivots):  # spread the free entries to their vertices
            found += found >> pivot << pivot
        found += bits
        found.sort(kind="stable")  # in place; a stable sort takes each sorted run whole
        for cr in basis.rows:
            bound, modulus = sum(map(abs, cr.row)), P_FIELD
            for q in SCAN_PRIMES[1:]:
                if modulus <= bound:
                    found = found[sum(x % q * (found >> v & 1)
                                      for v, x in enumerate(cr.row)) % q == 0]
                modulus *= q
            if modulus <= bound:
                raise FeasibleSearchTooLarge("a row's absolute values sum to %d" % bound)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest dimension
        raise FeasibleSearchTooLarge("2^%d sums: %s" % (len(free), exc)) from exc
    return found


def find_deletable_edges(masks, p: Problem):
    """Edges whose endpoints are never both in a feasible vector's mask."""
    masks = np.asarray(masks, dtype=np.int64)
    out = []
    for u, v in p.edges:
        both = (1 << u) | (1 << v)
        if not np.any((masks & both) == both):
            out.append((u, v))
    return out


def enumerate_assignment_patterns(masks, s, cap: int = DEFAULT_PATTERN_CAP, stop=None):
    """``oracle.walk_patterns`` over the feasible vectors' masks (it passes
    over mask 0), as the list of the patterns it finds.  Each goes to
    ``stop``, when given, and the first for which it is true ends the
    search and the list.  Raises PatternCapExceeded once a pattern past
    the first cap is found, before ``stop`` sees it."""
    cap = check_limit(cap, "pattern cap")
    found = []

    def visit(pattern) -> bool:
        if len(found) == cap:
            raise PatternCapExceeded(cap)
        found.append(pattern)
        return stop is not None and stop(pattern)

    oracle.walk_patterns(masks, s, visit)
    return found


def _reduce(p: Problem):
    """R1 and R2 to a fixpoint, or until R2 empties a list: the adjacency,
    list sizes and vertices left, and the deletions as (rule, v, its
    neighbours, s(v))."""
    adj, s, live = p.adjacency(), list(p.s), set(range(p.n))
    steps, heap = [], list(range(p.n))
    while heap:
        v = heapq.heappop(heap)
        rule = "R1" if s[v] > len(adj[v]) else "R2" if s[v] == 1 else None
        if rule is None or v not in live:
            continue
        steps.append((rule, v, sorted(adj[v]), s[v]))
        live.discard(v)
        for u in adj[v]:  # a deleted vertex keeps its last neighbours
            adj[u].discard(v)
            s[u] -= rule == "R2"
            heapq.heappush(heap, u)
        if rule == "R2" and 0 in (s[u] for u in adj[v]):
            break
    return adj, s, live, steps


def _gallai_colors(adj, s, found):
    """Uncolorable lists, (vertex set, multiplicity) pairs, of a component
    whose blocks ``found`` are all cliques or odd cycles, else None: each
    block B gets |B| - 1 or 2 colors of its own, deg(v) in all at each v
    (Erdos, Rubin, Taylor 1979; Borodin 1977), then v keeps its first s(v)."""
    colors = []
    for block in found:
        k, edges = len(block), sum(len(adj[v].intersection(block)) for v in block) // 2
        clique = edges == k * (k - 1) // 2
        if not clique and not (k % 2 and edges == k):
            return None
        colors += [set(block) for _ in range(k - 1 if clique else 2)]
    for v in set().union(*found):
        for color in [c for c in colors if v in c][s[v]:]:
            color.discard(v)
    return list(Counter(frozenset(c) for c in colors if c).items())


def _lift_bad(n: int, colors, vs, live, s, steps, details) -> Verdict:
    """NOT_CHOOSABLE, with ``details``, by a BadAssignment on the input
    graph from uncolorable lists of the component on ``vs``: other live
    vertices get colors of their own, and each deletion undone, last
    first, adds R2's one color on v and its neighbours or R1's s(v) on v."""
    colors = colors + [({w}, s[w]) for w in sorted(live.difference(vs)) if s[w]]
    for rule, v, nbrs, size in reversed(steps):
        colors.append(({v, *nbrs}, 1) if rule == "R2" else ({v}, size))
    pattern = [([int(v in c) for v in range(n)], mult) for c, mult in colors]
    cert = {"kind": "BadAssignment", "pattern": oracle.pattern_json(pattern)}
    return Verdict(NOT_CHOOSABLE, cert, details=details)


def pipeline_decide(p: Problem, **settings) -> Verdict:
    """Full decision pipeline under ``Settings(**settings)``, one path for
    every problem: the reductions (README, "Reductions"), the stages on
    each component left until one is refuted, and the certificate lifted
    back to p; a problem nothing reduces is one component, lifted by the
    identity.  ``details`` holds the ``reductions`` record and the
    deciding component's details, with the stats of all components run:
    monomials and branches add up, and ``peak_terms`` is the largest, as
    the components run one at a time."""
    settings = Settings(**settings)
    adj, s, live, steps = _reduce(p)
    refuted = 0 in (s[v] for v in live)
    parts = [] if refuted else blocks(adj, live)
    gallai = next(((vs, c) for vs, b in parts if (c := _gallai_colors(adj, s, b))), None)
    rules = Counter(rule for rule, *_ in steps)
    decided_by = "R2" if refuted else "R4" if gallai else "stages" if parts else "R1/R2"
    details = {"reductions": {"R1": rules["R1"], "R2": rules["R2"], "R4": int(bool(gallai)),
                              "components": len(parts), "decided_by": decided_by}}
    if refuted or gallai:
        vs, colors = gallai or ([], [])
        return _lift_bad(p.n, colors, vs, live, s, steps, details)

    runs = []
    for vs, _ in parts:
        runs.append((vs, _run_stages(p.induced(vs, s), settings)))
        if runs[-1][1].status == NOT_CHOOSABLE:
            break
    if runs:
        # the refuted run, else the first UNKNOWN, else the first without a witness
        vs, run = min(runs, key=lambda r: (
            r[1].status != NOT_CHOOSABLE, r[1].status != UNKNOWN,
            (r[1].certificate or {}).get("kind") == "WitnessMonomial",
        ))
        details.update(run.details)
        if "deletable_edges" in details:
            details["deletable_edges"] = [[vs[a], vs[b]] for a, b in details["deletable_edges"]]
        for key in ("standard_stats", "extended_stats"):
            if stats := [r.details[key] for _, r in runs if key in r.details]:
                details[key] = {k: (max if k == "peak_terms" else sum)(x[k] for x in stats)
                                for k in stats[0]}
        if run.status == NOT_CHOOSABLE:
            colors = [({vs[i] for i, x in enumerate(vec) if x}, mult)
                      for vec, mult in run.certificate["pattern"]]
            return _lift_bad(p.n, colors, vs, live, s, steps, details)
        if run.status == UNKNOWN or run.certificate["kind"] != "WitnessMonomial":
            cert = run.certificate and dict(run.certificate, vertices=vs)
            if run.status == CHOOSABLE and len(runs) > 1:  # each component's own proof
                cert = {"kind": "AllPatternsColorable", "components": [
                    dict(r.certificate, vertices=c) for c, r in runs]}
            return Verdict(run.status, cert, run.reason, details)

    # every component gave a witness; side by side they multiply
    f, coeff = [0] * p.n, 1
    for vs, run in runs:
        for v, x in zip(vs, run.certificate["f"]):
            f[v] = x
        coeff *= run.certificate["coefficient"]
    # R1's edges all leave v, R2's enter it; each low-to-high one flips the sign
    for rule, v, nbrs, _ in reversed(steps):
        f[v] = len(nbrs) if rule == "R1" else 0
        for u in nbrs:
            f[u] += rule == "R2"
        coeff *= (-1) ** sum((u > v) == (rule == "R1") for u in nbrs)
    cert = {"kind": "WitnessMonomial", "f": f, "coefficient": coeff}
    return Verdict(CHOOSABLE, cert, details=details)


def _run_stages(p: Problem, settings: Settings) -> Verdict:
    """The stages of ``pipeline_decide`` on one component, as a Verdict
    with their own details: the standard test, after which mode
    "standard" stops; constraint collection; the feasible-vector scan;
    deletable edges; and the pattern search, which colors each candidate
    assignment as it is found and stops at the first that cannot be
    colored: the list's last pattern, colored once more to tell it from a
    list that ran out, is the ``BadAssignment``.  Every
    assignment coloring, none at all included, gives
    ``AllPatternsColorable``.  A stage that cannot finish gives UNKNOWN,
    its reason from the table ``_GIVE_UPS`` and its findings so far kept.
    No list may be longer than its vertex's degree, as after R1.  First
    the degree count: a witness needs m <= room = sum(s(v) - 1), and a
    row, one unit more at one vertex, m <= room + 1; else no product runs."""
    room = sum(p.s) - p.n
    details = {"degree_bound": {"m": p.m, "room": room}}
    standard = settings.mode == "standard"
    if p.m > room + (not standard):
        if not standard:
            details["constraint_rank"] = 0
        return Verdict(UNKNOWN, reason="NoWitness" if standard else "NoConstraints",
                       details=details)
    ordering = order_vertices(p, settings.heuristic)
    details["ordering"] = {"heuristic": ordering.heuristic, "estimate": ordering.estimate}
    try:
        if p.m <= room:
            witness, stats = standard_alon_tarsi(
                p, ordering, settings.branch_limit, settings.prune_matching
            )
            details["standard_stats"] = asdict(stats)
            if witness is not None:
                f, coeff = witness
                cert = {"kind": "WitnessMonomial", "f": list(f), "coefficient": coeff}
                return Verdict(CHOOSABLE, cert, details=details)
        if standard:
            return Verdict(UNKNOWN, reason="NoWitness", details=details)
        basis, stats = collect_constraints(p, ordering, settings.branch_limit)
        details["extended_stats"] = asdict(stats)
        details["constraint_rank"] = basis.rank
        details["constraint_rows_offered"] = basis.offered
        if basis.rank == 0:
            return Verdict(UNKNOWN, reason="NoConstraints", details=details)

        masks = enumerate_feasible_vectors(basis, p.n)
        details["feasible_vectors"] = len(masks)
        details["deletable_edges"] = [list(e) for e in find_deletable_edges(masks, p)]

        color = oracle.pattern_colorer(p)
        patterns = enumerate_assignment_patterns(masks, p.s, settings.pattern_cap,
                                                 lambda pattern: color(pattern) is None)
    except tuple(_GIVE_UPS) as exc:
        if isinstance(exc, CoefficientOverflow):
            details["overflow"] = str(exc)
        return Verdict(UNKNOWN, reason=_GIVE_UPS[type(exc)], details=details)
    details["pattern_count"] = len(patterns)
    if patterns and color(patterns[-1]) is None:
        cert = {"kind": "BadAssignment", "pattern": patterns[-1]}
        return Verdict(NOT_CHOOSABLE, cert, details=details)
    cert = {"kind": "AllPatternsColorable", "count": len(patterns)}
    return Verdict(CHOOSABLE, cert, details=details)
