"""Decision procedures built on truncated product runs.

The standard test looks for any surviving monomial of full degree; its
existence certifies choosability.  The extended path keeps tight-marker
terms, turns every group with a common degree base into a linear
constraint on the 0/1 characteristic vectors of colors, and works through
feasible vectors and deletable edges to candidate list assignments.
Each assignment goes to the coloring search as the pattern search finds
it, and the first one that cannot be colored ends the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .graphs import Problem, VertexOrdering, order_vertices, DEFAULT_HEURISTIC
from .poly import (
    DEFAULT_BRANCH_LIMIT,
    CoefficientOverflow,
    RunStats,
    TermList,
    run_truncated_product,
    subset_sums,
    unpack_terms,
)

P_FIELD = (1 << 31) - 1

CHOOSABLE = "CHOOSABLE"
NOT_CHOOSABLE = "NOT_CHOOSABLE"
UNKNOWN = "UNKNOWN"

MODES = ("standard", "pipeline")
DEFAULT_PATTERN_CAP = 100
DEFAULT_FEASIBLE_CAP = 25


@dataclass(frozen=True)
class Settings:
    """The settings of one ``pipeline_decide`` run.

    The standard stage runs first; mode "standard" stops after it, and
    "pipeline" goes on to the later stages when it finds no witness.
    The matching prune acts on the standard stage.  Both caps must be at
    least 1.  The heuristic and the branch limit are checked where they
    are used, by ``order_vertices`` and ``run_truncated_product``.
    """

    mode: str = "pipeline"
    heuristic: str = DEFAULT_HEURISTIC
    branch_limit: int | None = DEFAULT_BRANCH_LIMIT
    pattern_cap: int = DEFAULT_PATTERN_CAP
    feasible_cap: int = DEFAULT_FEASIBLE_CAP
    prune_matching: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % ", ".join(MODES))
        if min(self.pattern_cap, self.feasible_cap) < 1:
            raise ValueError("the pattern and feasible caps must be at least 1")


class FeasibleSearchTooLarge(Exception):
    """The 0/1 solution scan would exceed the vertex cap."""


class PatternCapExceeded(Exception):
    """More candidate assignments are needed than the configured cap."""

    def __init__(self, cap):
        super().__init__("more than %d assignment patterns" % cap)
        self.cap = cap


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
    every retained row is exact.  ``offered`` counts the rows tested.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[ConstraintRow] = []
        self.offered = 0
        self._echelon: list[tuple[int, list[int]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, base, row) -> bool:
        """Retain the row if it is independent of the current rows."""
        self.offered += 1
        vec = [int(x) % P_FIELD for x in row]
        for pivot, evec in self._echelon:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % P_FIELD for a, b in zip(vec, evec)]
        pivot = next((i for i, x in enumerate(vec) if x), -1)
        if pivot < 0:
            return False
        inv = pow(vec[pivot], P_FIELD - 2, P_FIELD)
        vec = [a * inv % P_FIELD for a in vec]
        self._echelon.append((pivot, vec))
        self.rows.append(ConstraintRow(tuple(base), tuple(int(x) for x in row)))
        return True

    def extend(self, bases, rows) -> bool:
        """Offer the rows in order, as ``add`` would one at a time, up to
        rank n; returns whether it got there.  All rows are reduced mod p
        at once; each row still nonzero is retained by ``add`` and then
        reduces the rows after it.  Residues stay below p < 2^31, so every
        product is exact in int64."""
        todo = np.asarray(rows, dtype=np.int64) % P_FIELD
        for pivot, evec in self._echelon:
            todo = _eliminate(todo, pivot, evec)
        i = 0
        while self.rank < self.n:
            live = np.flatnonzero(todo[i:].any(axis=1))
            if not len(live):
                self.offered += len(todo) - i
                return False
            self.offered += int(live[0])
            i += int(live[0])
            self.add(tuple(int(x) for x in bases[i]), rows[i])
            i += 1
            todo[i:] = _eliminate(todo[i:], *self._echelon[-1])
        return True

    def satisfied_by(self, chi) -> bool:
        """Exact integer check of every retained row."""
        return all(
            sum(r * c for r, c in zip(cr.row, chi)) == 0 for cr in self.rows
        )


def _eliminate(vecs, pivot, evec):
    """Clear column ``pivot`` of the residues ``vecs`` with a monic row."""
    return (vecs - vecs[:, pivot, None] * np.asarray(evec)) % P_FIELD


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
        last = TermList(terms.keys[-1:], terms.coeffs[-1:])
        degrees, _, coeffs = unpack_terms(layout, last)
        self.witness = (tuple(int(x) for x in degrees[0]), int(coeffs[0]))
        return True


class _ConstraintSink:
    """Accumulates constraint rows; stops on a full-degree witness or
    once the rows already pin every characteristic vector to zero.

    Each tight group (marked terms sharing one degree base) gives a row;
    the marker is the lowest field, so a group's terms are consecutive.
    """

    def __init__(self, n: int):
        self.basis = ConstraintBasis(n)
        self.witness = None

    def __call__(self, layout, terms):
        degrees, markers, coeffs = unpack_terms(layout, terms)
        plain = np.flatnonzero(markers < 0)
        if len(plain):
            # last = largest key; invariant across branch limits
            last = plain[-1]
            self.witness = (tuple(int(x) for x in degrees[last]), int(coeffs[last]))
            return True
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
    """Largest surviving full-degree monomial, as (f, coefficient), or None."""
    if ordering is None:
        ordering = order_vertices(p, DEFAULT_HEURISTIC)
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
    """Run the tight-marker product and gather independent constraint rows.

    Returns (basis, witness, stats); witness is a full-degree monomial
    (f, coefficient) that makes the rows unnecessary, or None.
    """
    if ordering is None:
        ordering = order_vertices(p, DEFAULT_HEURISTIC)
    sink = _ConstraintSink(p.n)
    _, stats = run_truncated_product(
        p, ordering, mode="extended", branch_limit=branch_limit, sink=sink
    )
    return sink.basis, sink.witness, stats


def enumerate_feasible_vectors(
    basis: ConstraintBasis, n: int, cap: int = DEFAULT_FEASIBLE_CAP
):
    """All chi in {0,1}^n satisfying every retained row exactly, as the
    int64 array of their masks (bit v set when chi(v) = 1), ascending.

    Each row's residues mod p are summed over all 2^n masks at once, and
    a mask is kept when every sum vanishes mod p.  Residues are below
    p < 2^31, so the sums are exact in int64.  A row whose absolute
    values sum below p cannot wrap, so a zero residue is already an
    exact zero; the kept masks are rechecked exactly against the other
    rows.  Raises FeasibleSearchTooLarge when n exceeds the cap or the
    2^n arrays cannot be allocated.
    """
    if n > cap:
        raise FeasibleSearchTooLarge("n=%d exceeds the cap %d" % (n, cap))
    try:
        keep = np.ones(1 << n, dtype=bool)
        for cr in basis.rows:
            sums = subset_sums(np.array([x % P_FIELD for x in cr.row], dtype=np.int64))
            keep &= np.remainder(sums, P_FIELD, out=sums) == 0
            del sums  # freed before the next row's sums are built
        masks = np.flatnonzero(keep).astype(np.int64, copy=False)
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError past its largest array dimension
        raise FeasibleSearchTooLarge("2^%d masks: %s" % (n, exc)) from exc
    for cr in basis.rows:
        if sum(map(abs, cr.row)) >= P_FIELD:
            exact = [
                sum(r for v, r in enumerate(cr.row) if mask >> v & 1) == 0
                for mask in masks.tolist()
            ]
            masks = masks[np.array(exact, dtype=bool)]
    return masks


def find_deletable_edges(masks, p: Problem):
    """Edges whose endpoints are never both in a feasible vector's mask."""
    masks = np.asarray(masks, dtype=np.int64)
    out = []
    for u, v in p.edges:
        both = (1 << u) | (1 << v)
        if not np.any((masks & both) == both):
            out.append((u, v))
    return out


def _candidate_order(masks, n: int):
    """The distinct nonzero masks, densest first, then the largest
    vector read with vertex 0 as its most significant digit."""
    masks = np.sort(np.asarray(masks, dtype=np.int64))
    keep = masks != 0
    keep[1:] &= masks[1:] != masks[:-1]
    masks = masks[keep]
    reversed_bits = np.zeros_like(masks)
    for v in range(n):
        reversed_bits |= (masks >> v & 1) << (n - 1 - v)
    order = np.lexsort((reversed_bits, np.bitwise_count(masks)))
    return masks[order[::-1]]


def enumerate_assignment_patterns(masks, s, cap: int = DEFAULT_PATTERN_CAP, stop=None):
    """Multisets of nonzero feasible vectors, given by their masks, with
    componentwise sum equal to s; each pattern lists (0/1 tuple,
    multiplicity) pairs.

    Vectors are scanned densest first with multiplicities counted down, so
    the output order is deterministic.  Each pattern found is passed to
    ``stop``, when given, before the search goes on; the first pattern for
    which it is true ends the search and the list.  Raises
    PatternCapExceeded once a pattern past the first cap is found, before
    ``stop`` sees it.

    ``pos`` is the mask of vertices whose residual is still positive and
    ``suffix[i]`` the union of the masks from i on.  A node walks the
    candidates from its start: it stops once ``pos`` leaves ``suffix[i]``
    (nothing left can cover some vertex), passes over a mask that meets a
    finished vertex (0 is its only multiplicity), and otherwise tries the
    multiplicities from the largest down to 1.  Multiplicity 0 is the next
    loop step, so the recursion is only as deep as the number of vectors
    chosen, at most sum(s).  Supports and tuples are built only for the
    candidates a node tries.
    """
    n = len(s)
    cand = _candidate_order(masks, n)
    suffix = np.bitwise_or.accumulate(cand[::-1])[::-1].tolist() + [0]
    cand = cand.tolist()
    # (support, 0/1 tuple) of each candidate, built when first tried
    tried = [None] * len(cand)
    residual = list(s)
    chosen = []
    found = []

    def search(start: int, pos: int) -> bool:
        """Extend ``chosen``; true once ``stop`` ends the search."""
        if not pos:
            if len(found) == cap:
                raise PatternCapExceeded(cap)
            found.append(tuple(chosen))
            return stop is not None and stop(found[-1])
        for i in range(start, len(cand)):
            if pos & ~suffix[i]:
                return False
            mask = cand[i]
            if mask & ~pos:
                continue
            if tried[i] is None:
                tried[i] = (
                    [v for v in range(n) if mask >> v & 1],
                    tuple(mask >> v & 1 for v in range(n)),
                )
            sup, vec = tried[i]
            top = min(residual[v] for v in sup)
            for v in sup:
                residual[v] -= top
            # only the largest multiplicity finishes a vertex
            done = sum(1 << v for v in sup if residual[v] == 0)
            chosen.append((vec, top))
            if search(i + 1, pos & ~done):
                return True
            for mult in range(top - 1, 0, -1):
                for v in sup:
                    residual[v] += 1
                chosen[-1] = (vec, mult)
                if search(i + 1, pos):
                    return True
            chosen.pop()
            for v in sup:
                residual[v] += 1
        return False

    search(0, sum(1 << v for v, r in enumerate(s) if r))
    return found


def _pattern_json(pattern):
    return [
        {"vector": list(vec), "multiplicity": int(mult)} for vec, mult in pattern
    ]


def _stats_json(stats: RunStats):
    return {
        "total_monomials": stats.total_monomials,
        "peak_terms": stats.peak_terms,
        "branches": stats.branches,
    }


def pipeline_decide(p: Problem, **settings) -> Verdict:
    """Full decision pipeline under ``Settings(**settings)``.

    Stages: the standard test, after which mode "standard" stops; then
    constraint collection (with its own witness short-circuit);
    feasible-vector enumeration; deletable-edge detection; and one
    pattern stage, which colors each candidate assignment as the search
    finds it and stops at the first that cannot be colored.  The pattern
    cap bounds the assignments colored: a search that needs more ends
    UNKNOWN ``TooManyPatterns``.  Any stage that cannot finish
    downgrades the verdict to UNKNOWN with the partial findings kept in
    ``details``.
    """
    settings = Settings(**settings)
    details: dict = {}
    status, certificate, reason = _run_stages(p, settings, details)
    return Verdict(status, certificate, reason, details)


def _run_stages(p: Problem, settings: Settings, details: dict):
    """The stages of ``pipeline_decide``, filling ``details`` as they go;
    returns (status, certificate, reason)."""
    ordering = order_vertices(p, settings.heuristic)
    try:
        witness, stats = standard_alon_tarsi(
            p, ordering, settings.branch_limit, settings.prune_matching
        )
        details["standard_stats"] = _stats_json(stats)
        if witness is None and settings.mode != "standard":
            basis, witness, stats = collect_constraints(p, ordering, settings.branch_limit)
            details["extended_stats"] = _stats_json(stats)
    except CoefficientOverflow as exc:
        details["overflow"] = str(exc)
        return UNKNOWN, None, "Overflow"

    if witness is not None:
        f, coeff = witness
        cert = {"kind": "WitnessMonomial", "f": list(f), "coefficient": coeff}
        return CHOOSABLE, cert, None
    if settings.mode == "standard":
        return UNKNOWN, None, "NoWitness"

    details["constraint_rank"] = basis.rank
    details["constraint_rows_offered"] = basis.offered
    if basis.rank == 0:
        return UNKNOWN, None, "NoConstraints"

    try:
        masks = enumerate_feasible_vectors(basis, p.n, settings.feasible_cap)
    except FeasibleSearchTooLarge:
        return UNKNOWN, None, "FeasibleSearchTooLarge"
    nonzero = masks[masks != 0]
    details["feasible_vectors"] = len(masks)
    if not len(nonzero):
        return CHOOSABLE, {"kind": "NoFeasibleVectors", "rank": basis.rank}, None

    details["deletable_edges"] = [list(e) for e in find_deletable_edges(nonzero, p)]

    # With n + 1 >= deg(v) + 2 colors or more, v is never truncated or
    # marked in the product, so the rows hold for any list that long, and
    # v can always be colored last.  So longer lists are searched at that
    # length, and a bad pattern gets the rest of each as colors of its own.
    sizes = [min(x, p.n + 1) for x in p.s]
    color = oracle.pattern_colorer(p)
    bad = []

    def uncolorable(pattern) -> bool:
        if color(pattern) is not None:
            return False
        bad.append(pattern)
        return True

    try:
        patterns = enumerate_assignment_patterns(
            nonzero, sizes, settings.pattern_cap, stop=uncolorable
        )
    except PatternCapExceeded:
        return UNKNOWN, None, "TooManyPatterns"
    details["pattern_count"] = len(patterns)
    if bad:
        pattern = bad[0] + tuple(
            (tuple(int(u == v) for u in range(p.n)), x - k)
            for v, (x, k) in enumerate(zip(p.s, sizes))
            if x > k
        )
        cert = {"kind": "BadAssignment", "pattern": _pattern_json(pattern)}
        return NOT_CHOOSABLE, cert, None
    if not patterns:
        return CHOOSABLE, {"kind": "NoComposition"}, None
    return CHOOSABLE, {"kind": "AllPatternsColorable", "count": len(patterns)}, None
