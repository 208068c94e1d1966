"""Independent checks of the CLI's outputs, run outside the timed region.

Every decide report is checked for a consistent exit code and shape.
Certificates are re-checked where a second path exists:

- WitnessMonomial: f(v) < s(v), sum f = m, and the coefficient equals
  the signed orientation count from ``oracle.direct_coefficient`` when
  that finishes within the budget (otherwise the witness is unverified);
- BadAssignment: the multiplicities cover every list exactly and no
  proper coloring exists, by ``oracle.color_from_pattern`` and by the
  small search below;
- EdgeDeletion: the deleted edges exist and the inner certificate holds
  on the reduced problem.

The other CHOOSABLE certificates have no cheap second path and count as
unverified unless the brute-force oracle settles the same instance.
"""

from __future__ import annotations

import contextlib
import json
import signal
from dataclasses import dataclass, field

from choosability import oracle

EXIT = {"CHOOSABLE": 0, "NOT_CHOOSABLE": 1, "UNKNOWN": 2}
DECIDED = ("CHOOSABLE", "NOT_CHOOSABLE")


class TimeLimitExceeded(BaseException):
    """An instance or a check ran past its limit.

    A BaseException, so the CLI's own ``except Exception`` handlers
    cannot swallow it.
    """


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise TimeLimitExceeded()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Checked:
    """What one CLI call answered, and whether the answer held up."""

    verdict: str | None = None
    reason: str | None = None
    monomials: int = 0
    verified: bool = False
    errors: list[str] = field(default_factory=list)


def _colorable(p, pattern) -> bool:
    """Backtracking list coloring, most constrained vertex first."""
    lists = [set() for _ in range(p.n)]
    color = 0
    for vec, mult in pattern:
        for _ in range(mult):
            for v in range(p.n):
                if vec[v]:
                    lists[v].add(color)
            color += 1
    adj = [set() for _ in range(p.n)]
    for u, v in p.edges:
        adj[u].add(v)
        adj[v].add(u)
    chosen = {}

    def extend() -> bool:
        free = [v for v in range(p.n) if v not in chosen]
        if not free:
            return True
        options = {
            v: lists[v] - {chosen[u] for u in adj[v] if u in chosen} for v in free
        }
        v = min(free, key=lambda x: len(options[x]))
        for c in options[v]:
            chosen[v] = c
            if extend():
                return True
            del chosen[v]
        return False

    return extend()


def check_bad_assignment(p, entries, budget: float) -> tuple[list[str], bool]:
    """Errors in a BadAssignment pattern, and whether it was confirmed."""
    errors = []
    pattern = []
    for entry in entries:
        vec, mult = entry["vector"], entry["multiplicity"]
        if len(vec) != p.n or any(x not in (0, 1) for x in vec) or not any(vec):
            errors.append("bad vector %r" % (vec,))
        if not isinstance(mult, int) or mult < 1:
            errors.append("bad multiplicity %r" % (mult,))
        pattern.append((tuple(vec), mult))
    if errors:
        return errors, False
    cover = [sum(mult * vec[v] for vec, mult in pattern) for v in range(p.n)]
    if cover != list(p.s):
        return ["pattern covers %s, lists are %s" % (cover, list(p.s))], False
    try:
        with time_limit(budget):
            if oracle.color_from_pattern(p, pattern) is not None:
                return ["oracle colors the bad assignment"], False
            if _colorable(p, pattern):
                return ["the bad assignment is colorable"], False
    except TimeLimitExceeded:
        return [], False
    return [], True


def check_witness(p, cert, budget: float) -> tuple[list[str], bool]:
    """Errors in a WitnessMonomial, and whether its coefficient was confirmed."""
    f, coeff = list(cert["f"]), cert["coefficient"]
    if len(f) != p.n or any(not 0 <= f[v] < p.s[v] for v in range(p.n)):
        return ["witness f=%s is not below s=%s" % (f, list(p.s))], False
    if sum(f) != p.m:
        return ["witness degree %d != m=%d" % (sum(f), p.m)], False
    if coeff == 0:
        return ["witness coefficient is zero"], False
    try:
        with time_limit(budget):
            direct = oracle.direct_coefficient(p, f)
    except TimeLimitExceeded:
        return [], False
    if direct != coeff:
        return ["coefficient %d, orientation count %d" % (coeff, direct)], False
    return [], True


def check_certificate(p, status, cert, budget) -> tuple[list[str], bool]:
    kind = cert and cert.get("kind")
    if status == "NOT_CHOOSABLE":
        if kind != "BadAssignment":
            return ["NOT_CHOOSABLE with certificate %r" % kind], False
        return check_bad_assignment(p, cert["pattern"], budget)
    if kind == "WitnessMonomial":
        return check_witness(p, cert, budget)
    if kind == "EdgeDeletion":
        edges = [tuple(e) for e in cert["edges"]]
        if not edges or not set(edges) <= set(p.edges):
            return ["deleted edges %s are not edges" % edges], False
        return check_certificate(p.without_edges(edges), status, cert["inner"], budget)
    if kind in ("NoFeasibleVectors", "AllPatternsColorable", "NoComposition"):
        return [], False
    return ["CHOOSABLE with certificate %r" % kind], False


def check_decide(p, rc: int, stdout: str, budget: float) -> Checked:
    out = Checked()
    try:
        report = json.loads(stdout)
    except ValueError:
        out.errors.append("decide printed no JSON report (exit %d)" % rc)
        return out
    out.verdict = status = report.get("verdict")
    out.reason = report.get("reason")
    details = report.get("details") or {}
    out.monomials = sum(
        details[k]["total_monomials"]
        for k in ("standard_stats", "extended_stats")
        if k in details
    )
    if status not in EXIT or rc != EXIT[status]:
        out.errors.append("verdict %r with exit code %d" % (status, rc))
        return out
    if report["problem"]["n"] != p.n or report["problem"]["m"] != p.m:
        out.errors.append("report describes another problem")
        return out
    if status == "UNKNOWN":
        if report["certificate"] is not None or not out.reason:
            out.errors.append("UNKNOWN needs a reason and no certificate")
        return out
    errors, out.verified = check_certificate(p, status, report["certificate"], budget)
    out.errors += errors
    return out


def check_oracle(p, rc: int, stdout: str, budget: float) -> Checked:
    """The brute-force answer; exit 2 with no report means it refused."""
    out = Checked()
    if rc == 2 and not stdout.strip():
        out.verdict, out.reason = "UNKNOWN", "OracleRefused"
        return out
    try:
        answer = json.loads(stdout)
    except ValueError:
        out.errors.append("oracle printed no JSON answer (exit %d)" % rc)
        return out
    out.verdict = "CHOOSABLE" if answer["choosable"] else "NOT_CHOOSABLE"
    if rc != EXIT[out.verdict]:
        out.errors.append("oracle answer %s with exit code %d" % (out.verdict, rc))
    elif out.verdict == "NOT_CHOOSABLE":
        errors, _ = check_bad_assignment(p, answer["witness"], budget)
        out.errors += errors
    out.verified = not out.errors
    return out


CHECKS = {"decide": check_decide, "oracle": check_oracle}


def check_instance(p, calls, outputs, budget: float) -> list[Checked]:
    """Check every call's output; where the brute-force oracle ran too,
    decided verdicts must equal its answer."""
    checked = [
        CHECKS[call[0]](p, rc, stdout, budget)
        for call, (rc, stdout) in zip(calls, outputs)
    ]
    answers = {call[0]: c for call, c in zip(calls, checked)}
    if "oracle" in answers and "decide" in answers:
        dec, ora = answers["decide"], answers["oracle"]
        if dec.verdict in DECIDED and ora.verdict in DECIDED:
            if dec.verdict != ora.verdict:
                dec.errors.append(
                    "decide says %s, brute force says %s" % (dec.verdict, ora.verdict)
                )
            else:
                dec.verified = True
    return checked
