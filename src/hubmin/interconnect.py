"""Constructing interconnecting paths on a representation.

An interconnecting path starts at a lower vertex of an S1S2 alternating
path, ends at an upper vertex of an R2R1 alternating path, and alternates
public and private edges, every edge traversed in its natural direction.
The construction walks forward from a fresh lower vertex, switching
previously built paths when it hits the choke of an R2R1 path, then walks
the pulled-back path backward.  The backward phase is the forward walk on the
reversed orientation, so one routine runs both.  ``verify_run`` re-checks the
structural guarantees after the fact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .graph_core import InvariantError, Path, hub_count, path_vertices
from .representation import (
    R2R1,
    S1R1,
    S1S2,
    Representation,
    decompose_private,
    hub_table,
)

Step = Tuple[int, bool]


@dataclass(frozen=True)
class InterconnectRun:
    """The result of one full construction run: the interconnecting paths
    and the trace of the steps that built them.

    The alternating paths are the representation's own decomposition
    (``decompose_private``); the trace holds one ``start`` and one
    ``forward-stop`` event per iteration, the stop naming the R2R1 path
    whose exhausted choke ended that iteration's forward walk.
    """

    paths: Tuple[Path, ...]
    trace: Tuple[dict, ...]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of verify_run: named checks with pass/fail."""

    passed: Tuple[str, ...]
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class _Phase(NamedTuple):
    """One direction of the walk.

    The backward phase is the forward phase on the reversed orientation:
    sources and sinks swap, so S1S2 and R2R1 trade roles, and so do the
    upper and lower decks.  The walk keeps its path in walk order, which for
    the backward phase is the natural order reversed.
    """

    name: str
    stop: str  # kind of alternating path whose exhausted choke ends the walk
    end: int  # walking end of an edge in its natural direction: head 1, tail 0
    free: str  # deck holding the free choke candidates: "upper" or "lower"
    keys: Tuple[str, str, str]  # trace keys for the walking vertex, a0 and b0

    def turn(self, steps: List[Step]) -> List[Step]:
        """Natural order to walk order, and back."""
        return steps if self.end else steps[::-1]


_FORWARD = _Phase("forward", R2R1, 1, "upper", ("u", "x0", "y0"))
_BACKWARD = _Phase("backward", S1S2, 0, "lower", ("w", "y0", "x0"))


class _State:
    """Mutable walk state shared by the step handlers.

    It reads the representation's hub table as the decomposition left it:
    each edge's natural direction and ends, each hub's public and (phi,
    psi) private edges, and each hub's alternating path and position there
    (``path_index``, ``position``), with every path's hubs in step order
    (``hubs``).
    """

    def __init__(self, rep: Representation, seed: Optional[int]):
        self.g = rep.graph
        self.alt = decompose_private(rep)
        self.rng = random.Random(seed) if seed is not None else None

        table = hub_table(rep)
        if table.unpatterned is not None:
            raise InvariantError(
                "algorithm-stuck",
                f"hub {table.unpatterned} lacks the 1-public/2-private pattern",
            )
        self.direction = table.direction
        self.ends = table.ends  # edge id -> natural (tail, head)
        self.public_at = table.public
        self.private_at = table.private
        self.hubs = table.hubs  # alternating path index -> its hubs in step order
        self.path_index = table.path_index  # hub -> its alternating path
        self.position = table.position  # hub -> its index in that path's hubs
        # Per alternating path, the private edge a walk takes from its hubs,
        # as an index into a hub's (phi, psi) pair: psi on S1 paths, phi on
        # R2 paths.
        self.take = [1 if a.kind in (S1S2, S1R1) else 0 for a in self.alt]

        self.occupied: set = set()
        self.chokes: List[Optional[int]] = [a.choke for a in self.alt]
        self.paths: List[List[Step]] = []  # the set of interconnecting paths
        self.trace: List[dict] = []
        self.delta = sum(1 for a in self.alt if a.kind == S1S2)
        self.budget = 10 * len(self.g.edges) * self.delta
        self.steps_taken = 0
        # Start candidates in the order ``pick_start`` offers them.
        self.starts = sorted(v for a in self.alt if a.kind == S1S2 for v in a.lower)
        # The stored paths as ``check_disjoint`` last passed them: id -> (the
        # path, its vertices), and each of their vertices -> the path's id.
        # Holding the path keeps its id from being reused.
        self._checked: Dict[int, Tuple[List[Step], List[int]]] = {}
        self._owner: Dict[int, int] = {}

    # -- bookkeeping ------------------------------------------------------

    def charge(self, step: str) -> None:
        self.steps_taken += 1
        if self.steps_taken > self.budget:
            raise InvariantError(
                "algorithm-stuck", f"step budget {self.budget} exhausted at {step}"
            )

    def occupy(self, v: int) -> None:
        if v in self.occupied:
            raise InvariantError("algorithm-stuck", f"vertex {v} occupied twice")
        self.occupied.add(v)

    def natural(self, eid: int) -> Step:
        return (eid, self.direction[eid])

    def upto(self, steps: List[Step], v: int, end: int) -> List[Step]:
        """The steps of a walk up to the one whose walking end is v."""
        for i, (eid, _) in enumerate(steps):
            if self.ends[eid][end] == v:
                return steps[: i + 1]
        raise InvariantError("algorithm-stuck", f"walk reaches no vertex {v}")

    def onward(self, steps: List[Step], v: int, end: int) -> List[Step]:
        """The steps of a walk from the one that leaves v onward."""
        for i, (eid, _) in enumerate(steps):
            if self.ends[eid][1 - end] == v:
                return steps[i:]
        raise InvariantError("algorithm-stuck", f"walk leaves no vertex {v}")

    def edge_between(self, index: int, a: int, b: int) -> int:
        """The private edge connecting adjacent hubs a and b of alternating
        path ``index``."""
        i, j = self.position[a], self.position[b]
        if abs(i - j) != 1:
            raise InvariantError(
                "algorithm-stuck", f"hubs {a}, {b} are not adjacent on path {index}"
            )
        return self.alt[index].steps[max(i, j)]

    def path_with_edge(self, eid: int) -> int:
        for i, p in enumerate(self.paths):
            if any(e == eid for e, _ in p):
                return i
        raise InvariantError("algorithm-stuck", f"edge {eid} on no interconnecting path")

    def path_with_tail(self, v: int) -> int:
        for i, p in enumerate(self.paths):
            if self.ends[p[0][0]][0] == v:
                return i
        raise InvariantError("algorithm-stuck", f"no interconnecting path starts at {v}")

    def check_disjoint(self, extra: Optional[List[Step]] = None) -> None:
        """All stored paths (plus the current one) are simple and disjoint.

        Raises what a scan of the paths in order, ``extra`` last, raises at
        the first path that is not simple or meets an earlier one.  Paths
        that passed the last call are known to be simple and disjoint, so
        only the paths stored since are walked, and they are checked against
        the owners of the vertices they reach.  A shared edge puts both its
        ends on both paths, so disjoint vertices are disjoint edges too.
        ``extra`` is checked and not recorded.
        """
        first: Dict[int, int] = {}  # id -> the first position of that path
        for i, p in enumerate(self.paths):
            first.setdefault(id(p), i)
        for key in [k for k in self._checked if k not in first]:
            for v in self._checked.pop(key)[1]:
                del self._owner[v]
        groups = self.paths if extra is None else self.paths + [extra]
        fresh: Dict[int, int] = {}  # vertex -> position of the new path on it
        walked: List[Tuple[List[Step], List[int]]] = []
        clash = len(groups)  # the first position that meets an earlier path
        for i, p in enumerate(groups):
            if i >= clash:
                break
            if id(p) in self._checked and first[id(p)] == i:
                continue
            verts = path_vertices(self.g, Path(steps=tuple(p)))
            if not (fresh.keys().isdisjoint(verts) and self._owner.keys().isdisjoint(verts)):
                met = [fresh[v] for v in verts if v in fresh]
                met += [first[self._owner[v]] for v in verts if v in self._owner]
                clash = min(clash, max(i, min(met)))
            fresh.update(dict.fromkeys(verts, i))
            walked.append((p, verts))
        if clash < len(groups):
            raise InvariantError("algorithm-stuck", "interconnecting paths share a vertex")
        if extra is not None:
            walked.pop()
        for p, verts in walked:
            self._checked[id(p)] = (p, verts)
            self._owner.update(dict.fromkeys(verts, id(p)))

    def pick_start(self) -> Optional[int]:
        candidates = [v for v in self.starts if v not in self.occupied]
        if not candidates:
            return None
        if self.rng is not None:
            return self.rng.choice(candidates)
        return candidates[0]


def _walk(st: _State, ph: _Phase, path: List[Step], at: int, iteration: int) -> List[Step]:
    """Extend a walk-ordered path from vertex ``at`` until an exhausted choke.

    The walk takes the private edge at each reached vertex, then the public
    edge at the next one.  At the choke of a ``ph.stop`` path with a free
    candidate a0 left, it switches: the hubs between a0 and the choke read
    b0 a1 b1 ... ad bd, and the d earlier paths through the private edges
    ai-bi are rebuilt around the new path.
    """
    name, stop, end = ph.name, ph.stop, ph.end
    public = f"{name}-public"
    at_key, a_key, b_key = ph.keys
    charge, occupy, natural = st.charge, st.occupy, st.natural
    ends, public_at = st.ends, st.public_at
    path_index, position = st.path_index, st.position
    while True:
        charge(name)
        index = path_index[at]
        alt = st.alt[index]
        if alt.kind == stop and at == st.chokes[index]:
            unocc = [h for h in getattr(alt, ph.free) if h not in st.occupied]
            if not unocc:
                st.trace.append(
                    {
                        "step": f"{name}-stop",
                        "iteration": iteration,
                        "path_index": index,
                        at_key: at,
                    }
                )
                return path
            a0 = max(unocc, key=position.__getitem__)
            # a0 and the choke are free hubs, and the decks alternate along
            # the hubs, so the hubs between them read b0 a1 b1 ... ad bd.
            between = st.hubs[index][position[a0] + 1 : position[at]]
            a = between[1::2]  # a1 .. ad
            b0, *b = between[::2]  # b0, then b1 .. bd
            d = len(a)
            st.trace.append(
                {
                    "step": f"{name}-switch",
                    "iteration": iteration,
                    "path_index": index,
                    at_key: at,
                    a_key: a0,
                    b_key: b0,
                    "d": d,
                }
            )
            st.chokes[index] = a0
            occupy(b0)
            if d == 0:
                path.append(natural(st.edge_between(index, at, b0)))
            else:
                involved = [
                    st.path_with_edge(st.edge_between(index, a[i], b[i])) for i in range(d)
                ]
                if len(set(involved)) != d:
                    raise InvariantError("algorithm-stuck", "switch edges share a path")
                olds = [ph.turn(st.paths[i]) for i in involved]
                for i in sorted(involved, reverse=True):
                    del st.paths[i]
                rebuilt = [
                    st.upto(olds[i + 1], a[i + 1], end)
                    + [natural(st.edge_between(index, a[i + 1], b[i]))]
                    + st.onward(olds[i], b[i], end)
                    for i in range(d - 1)
                ]
                rebuilt.append(
                    path
                    + [natural(st.edge_between(index, at, b[-1]))]
                    + st.onward(olds[-1], b[-1], end)
                )
                st.paths.extend(ph.turn(p) for p in rebuilt)
                path = st.upto(olds[0], a[0], end) + [
                    natural(st.edge_between(index, a[0], b0))
                ]
                st.check_disjoint(extra=ph.turn(path))
        else:
            # One rule for both phases: the four kinds split into S1 and R2 paths.
            e = st.private_at[at][st.take[index]]
            occupy(ends[e][end])
            path.append(natural(e))

        # Hop across the public edge at the reached vertex.
        charge(public)
        f = public_at[ends[path[-1][0]][end]]
        at = ends[f][end]
        occupy(at)
        path.append(natural(f))


def run_interconnect(rep: Representation, seed: Optional[int] = None) -> InterconnectRun:
    """Build one interconnecting path per S1S2/R2R1 alternating-path pair."""
    st = _State(rep, seed)
    iteration = 0

    while len(st.paths) < st.delta:
        iteration += 1
        # Pick a fresh lower vertex on an S1S2 path and step onto its public
        # edge.
        st.charge("start")
        v = st.pick_start()
        if v is None:
            raise InvariantError(
                "algorithm-stuck", "no unoccupied lower vertex on any S1S2 path"
            )
        st.occupy(v)
        f = st.public_at[v]
        u = st.ends[f][1]
        st.occupy(u)
        st.trace.append({"step": "start", "iteration": iteration, "v": v, "u": u})
        path = _walk(st, _FORWARD, [st.natural(f)], u, iteration)

        # Store the finished path, pull back the one that starts at v and
        # extend it at its tail.
        st.paths.append(path)
        path = st.paths.pop(st.path_with_tail(v))
        st.trace.append({"step": "pullback", "iteration": iteration, "w": v})
        path = _BACKWARD.turn(_walk(st, _BACKWARD, _BACKWARD.turn(path), v, iteration))

        st.paths.append(path)
        st.check_disjoint()
        st.trace.append(
            {"step": "stored", "iteration": iteration, "count": len(st.paths)}
        )

    return InterconnectRun(
        paths=tuple(Path(steps=tuple(p)) for p in st.paths), trace=tuple(st.trace)
    )


def verify_run(rep: Representation, run: InterconnectRun) -> VerifyReport:
    """Re-check the structural guarantees of a finished run.

    The checks read the run's paths, the representation's decomposition
    (``decompose_private``) and, for stop-path-growth, the ``path_index`` of
    the trace's ``forward-stop`` events, one per iteration in order.
    Stop-path-growth fails unless the trace holds exactly one
    ``forward-stop`` per interconnecting path, each naming an R2R1 path by
    an index into the decomposition, and the path stopped at in iteration
    t has at most 2t - 1 hubs.
    """
    g = rep.graph
    alt = decompose_private(rep)
    edge_to_alt: Dict[int, int] = {}
    for i, a in enumerate(alt):
        for eid in a.steps:
            edge_to_alt[eid] = i
    vertex_role: Dict[int, Tuple[int, str]] = {}
    for i, a in enumerate(alt):
        for x in a.upper:
            vertex_role[x] = (i, "upper")
        for y in a.lower:
            vertex_role[y] = (i, "lower")

    c1, c2 = g.pairs[0].demand, g.pairs[1].demand
    delta = sum(1 for a in alt if a.kind == S1S2)
    passed: List[str] = []
    failures: List[str] = []

    def record(name: str, ok: bool) -> None:
        (passed if ok else failures).append(name)

    # Each interconnecting path's private edges lie on distinct alternating
    # paths.
    ok = True
    for p in run.paths:
        on = [edge_to_alt[eid] for eid, _ in p.steps if eid in edge_to_alt]
        if len(on) != len(set(on)):
            ok = False
    record("private-edges-on-distinct-alternating-paths", ok)

    # Path count equals the number of S1S2 paths and respects the demands.
    record("path-count", len(run.paths) == delta <= min(c1, c2))

    # The paths partition the hubs.
    seqs = [path_vertices(g, p) for p in run.paths]
    hubs = [v for v in g.vertices if not g.is_terminal(v)]
    count: Dict[int, int] = {v: 0 for v in hubs}
    ok = True
    for seq in seqs:
        for v in seq:
            if v not in count:
                ok = False
            else:
                count[v] += 1
    record("hub-partition", ok and all(c == 1 for c in count.values()))

    def on_distinct(ends: List[int], side: str, kind: str) -> bool:
        """Every end is a `side` vertex of a `kind` path, one end per path."""
        roles = [vertex_role.get(v) for v in ends]
        return all(
            r is not None and r[1] == side and alt[r[0]].kind == kind for r in roles
        ) and len({r[0] for r in roles}) == len(roles)

    # Tails at distinct S1S2 lowers; heads at distinct R2R1 uppers.
    record("tails-on-distinct-S1S2-paths", on_distinct([q[0] for q in seqs], "lower", S1S2))
    record("heads-on-distinct-R2R1-paths", on_distinct([q[-1] for q in seqs], "upper", R2R1))

    # Hub-count bound chain.
    record("hub-count-bound", hub_count(g) <= 2 * delta * (c1 + c2 - delta) <= 2 * c1 * c2)

    # One forward stop per path; the R2R1 path exhausted in iteration t
    # carries at most 2t - 1 hubs.
    stops = [e["path_index"] for e in run.trace if e["step"] == "forward-stop"]
    ok = len(stops) == len(run.paths)
    for t, idx in enumerate(stops, start=1):
        a = alt[idx] if 0 <= idx < len(alt) else None
        if a is None or a.kind != R2R1 or len(a.upper) + len(a.lower) > 2 * t - 1:
            ok = False
    record("stop-path-growth", ok)

    return VerifyReport(passed=tuple(passed), failures=tuple(failures))
