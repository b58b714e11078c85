"""Constructing interconnecting paths on a representation.

An interconnecting path starts at a lower vertex of an S1S2 alternating
path, ends at an upper vertex of an R2R1 alternating path, and alternates
public and private edges, every edge traversed in its natural direction.
The construction walks forward from a fresh lower vertex, switching
previously built paths when it hits the choke of an R2R1 path, then walks
the pulled-back path backward symmetrically.  ``verify_run`` re-checks the
structural guarantees after the fact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph_core import (
    PHI,
    PSI,
    PUBLIC,
    InvariantError,
    Network,
    Path,
    classify_edges,
    hub_count,
    path_vertices,
)
from .representation import (
    R2R1,
    R2S2,
    S1R1,
    S1S2,
    AlternatingPath,
    Representation,
    decompose_private,
)

Step = Tuple[int, bool]


@dataclass(frozen=True)
class InterconnectRun:
    """The result of one full construction run."""

    paths: Tuple[Path, ...]
    occupied: frozenset
    chokes: Dict[AlternatingPath, Optional[int]]
    iteration: int
    trace: Tuple[dict, ...]
    alternating: Tuple[AlternatingPath, ...]
    forward_stops: Tuple[int, ...]  # alternating-path index where each iteration stopped


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of verify_run: named checks with pass/fail."""

    passed: Tuple[str, ...]
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class _Deck:
    """Indexed view of one alternating path for the walk."""

    def __init__(self, g: Network, rep: Representation, alt: AlternatingPath, index: int):
        self.alt = alt
        self.index = index
        self.kind = alt.kind
        # Hub order along steps; hub i sits between steps[i] and steps[i+1].
        hubs: List[int] = []
        anchor_edge = g.edge_by_id[alt.steps[0]]
        prev = anchor_edge.u if g.is_terminal(anchor_edge.u) else anchor_edge.v
        walk_v = prev
        for eid in alt.steps[:-1]:
            walk_v = g.edge_by_id[eid].other(walk_v)
            hubs.append(walk_v)
        self.hubs = hubs
        self.pos = {h: i for i, h in enumerate(hubs)}
        self.upper = set(alt.upper)
        self.lower = set(alt.lower)

    def edge_between(self, a: int, b: int) -> int:
        """The private edge connecting adjacent hubs a and b."""
        i, j = self.pos[a], self.pos[b]
        if abs(i - j) != 1:
            raise InvariantError(
                "algorithm-stuck", f"hubs {a}, {b} are not adjacent on path {self.index}"
            )
        return self.alt.steps[max(i, j)]


class _State:
    """Mutable walk state shared by the step handlers."""

    def __init__(self, rep: Representation, seed: Optional[int]):
        self.rep = rep
        self.g = rep.graph
        self.alt = decompose_private(rep)
        self.decks = [_Deck(self.g, rep, a, i) for i, a in enumerate(self.alt)]
        self.rng = random.Random(seed) if seed is not None else None

        self.vertex_deck: Dict[int, _Deck] = {}
        for deck in self.decks:
            for h in deck.hubs:
                self.vertex_deck[h] = deck

        self.public_at: Dict[int, int] = {}
        self.private_at: Dict[int, Dict[str, int]] = {}
        # The decomposition above rejects unused edges, so every edge is
        # public or private to one system.
        edge_tags = classify_edges(self.g, rep.systems)
        for v in self.g.vertices:
            if self.g.is_terminal(v):
                continue
            pub = [e for e in self.g.incident[v] if edge_tags[e] == PUBLIC]
            priv = [e for e in self.g.incident[v] if edge_tags[e] != PUBLIC]
            if len(pub) != 1 or len(priv) != 2:
                raise InvariantError(
                    "algorithm-stuck", f"hub {v} lacks the 1-public/2-private pattern"
                )
            self.public_at[v] = pub[0]
            self.private_at[v] = {edge_tags[e]: e for e in priv}

        self.occupied: set = set()
        self.chokes: Dict[int, Optional[int]] = {
            d.index: d.alt.choke for d in self.decks
        }
        self.paths: List[List[Step]] = []  # the set of interconnecting paths
        self.trace: List[dict] = []
        self.forward_stops: List[int] = []
        self.delta = sum(1 for a in self.alt if a.kind == S1S2)
        self.budget = 10 * len(self.g.edges) * self.delta
        self.steps_taken = 0
        # Step tuple -> (vertex set, edge-id set) of a path already validated.
        self._path_sets: Dict[Tuple[Step, ...], Tuple[frozenset, frozenset]] = {}

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
        return (eid, self.rep.natural_direction(eid))

    def ends(self, eid: int) -> Tuple[int, int]:
        return self.g.edge_by_id[eid].ends(self.rep.natural_direction(eid))

    def tail(self, steps: Sequence[Step]) -> int:
        return self.ends(steps[0][0])[0]

    def head(self, steps: Sequence[Step]) -> int:
        return self.ends(steps[-1][0])[1]

    def prefix_to(self, steps: Sequence[Step], v: int) -> List[Step]:
        for i, (eid, _) in enumerate(steps):
            if self.ends(eid)[1] == v:
                return list(steps[: i + 1])
        raise InvariantError("algorithm-stuck", f"vertex {v} not a head on path")

    def suffix_from(self, steps: Sequence[Step], v: int) -> List[Step]:
        for i, (eid, _) in enumerate(steps):
            if self.ends(eid)[0] == v:
                return list(steps[i:])
        raise InvariantError("algorithm-stuck", f"vertex {v} not a tail on path")

    def path_with_edge(self, eid: int) -> int:
        for i, p in enumerate(self.paths):
            if any(e == eid for e, _ in p):
                return i
        raise InvariantError("algorithm-stuck", f"edge {eid} on no interconnecting path")

    def path_with_tail(self, v: int) -> int:
        for i, p in enumerate(self.paths):
            if self.tail(p) == v:
                return i
        raise InvariantError("algorithm-stuck", f"no interconnecting path starts at {v}")

    def check_disjoint(self, extra: Optional[List[Step]] = None) -> None:
        """All stored paths (plus the current one) are simple and disjoint."""
        seen_v: set = set()
        seen_e: set = set()
        groups = self.paths + ([extra] if extra is not None else [])
        for p in groups:
            key = tuple(p)
            sets = self._path_sets.get(key)
            if sets is None:
                verts = path_vertices(self.g, Path(steps=key))
                sets = self._path_sets[key] = (frozenset(verts), frozenset(e for e, _ in p))
            verts, eids = sets
            if not seen_v.isdisjoint(verts):
                raise InvariantError(
                    "algorithm-stuck", "interconnecting paths share a vertex"
                )
            if not seen_e.isdisjoint(eids):
                raise InvariantError(
                    "algorithm-stuck", "interconnecting paths share an edge"
                )
            seen_v |= verts
            seen_e |= eids

    def pick_start(self) -> Optional[int]:
        candidates = sorted(
            v
            for d in self.decks
            if d.kind == S1S2
            for v in d.alt.lower
            if v not in self.occupied
        )
        if not candidates:
            return None
        if self.rng is not None:
            return self.rng.choice(candidates)
        return candidates[0]


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
        u = st.ends(f)[1]
        st.occupy(u)
        path: List[Step] = [st.natural(f)]
        st.trace.append({"step": "start", "iteration": iteration, "v": v, "u": u})

        # Forward phase: extend at the head until an exhausted R2R1 choke.
        while True:
            st.charge("forward")
            deck = st.vertex_deck[u]
            if deck.kind == R2R1 and u == st.chokes[deck.index]:
                unocc = [x for x in deck.alt.upper if x not in st.occupied]
                if not unocc:
                    st.trace.append(
                        {
                            "step": "forward-stop",
                            "iteration": iteration,
                            "path_index": deck.index,
                            "u": u,
                        }
                    )
                    st.forward_stops.append(deck.index)
                    break
                x0 = max(unocc, key=lambda x: deck.pos[x])
                # Hubs between x0 and u alternate lower/upper: y0 x1 y1 ... xd yd.
                between = deck.hubs[deck.pos[x0] + 1 : deck.pos[u]]
                lows = [h for h in between if h in deck.lower]
                ups = [h for h in between if h in deck.upper]
                d = len(ups)
                y0 = lows[0]
                st.trace.append(
                    {
                        "step": "forward-switch",
                        "iteration": iteration,
                        "path_index": deck.index,
                        "u": u,
                        "x0": x0,
                        "y0": y0,
                        "d": d,
                    }
                )
                st.chokes[deck.index] = x0
                st.occupy(y0)
                if d == 0:
                    path.append(st.natural(deck.edge_between(u, y0)))
                else:
                    xs = ups  # x1 .. xd
                    ys = lows[1:]  # y1 .. yd
                    involved = [
                        st.path_with_edge(deck.edge_between(xs[i], ys[i]))
                        for i in range(d)
                    ]
                    if len(set(involved)) != d:
                        raise InvariantError(
                            "algorithm-stuck", "switch edges share a path"
                        )
                    olds = [st.paths[i] for i in involved]
                    for i in sorted(involved, reverse=True):
                        del st.paths[i]
                    hat = path
                    path = st.prefix_to(olds[0], xs[0]) + [
                        st.natural(deck.edge_between(xs[0], y0))
                    ]
                    rebuilt = []
                    for i in range(d - 1):
                        rebuilt.append(
                            st.prefix_to(olds[i + 1], xs[i + 1])
                            + [st.natural(deck.edge_between(xs[i + 1], ys[i]))]
                            + st.suffix_from(olds[i], ys[i])
                        )
                    rebuilt.append(
                        st.prefix_to(hat, u)
                        + [st.natural(deck.edge_between(u, ys[d - 1]))]
                        + st.suffix_from(olds[d - 1], ys[d - 1])
                    )
                    st.paths.extend(rebuilt)
                    st.check_disjoint(extra=path)
            else:
                want = PSI if deck.kind in (S1S2, S1R1) else PHI
                e = st.private_at[u][want]
                st.occupy(st.ends(e)[1])
                path.append(st.natural(e))

            # Hop across the public edge at the reached lower vertex.
            st.charge("forward-public")
            y = st.head(path)
            f = st.public_at[y]
            u = st.ends(f)[1]
            st.occupy(u)
            path.append(st.natural(f))

        # Store the finished path, pull back the one that starts at v.
        st.paths.append(path)
        idx = st.path_with_tail(v)
        path = st.paths.pop(idx)
        w = v
        st.trace.append({"step": "pullback", "iteration": iteration, "w": w})

        # Backward phase: extend at the tail until an exhausted S1S2 choke.
        while True:
            st.charge("backward")
            deck = st.vertex_deck[w]
            if deck.kind == S1S2 and w == st.chokes[deck.index]:
                unocc = [y for y in deck.alt.lower if y not in st.occupied]
                if not unocc:
                    st.trace.append(
                        {
                            "step": "backward-stop",
                            "iteration": iteration,
                            "path_index": deck.index,
                            "w": w,
                        }
                    )
                    break
                y0 = max(unocc, key=lambda y: deck.pos[y])
                # Hubs between y0 and w alternate upper/lower: x0 y1 x1 ... yd xd.
                between = deck.hubs[deck.pos[y0] + 1 : deck.pos[w]]
                ups = [h for h in between if h in deck.upper]
                lows = [h for h in between if h in deck.lower]
                d = len(lows)
                x0 = ups[0]
                st.trace.append(
                    {
                        "step": "backward-switch",
                        "iteration": iteration,
                        "path_index": deck.index,
                        "w": w,
                        "y0": y0,
                        "x0": x0,
                        "d": d,
                    }
                )
                st.chokes[deck.index] = y0
                st.occupy(x0)
                if d == 0:
                    path = [st.natural(deck.edge_between(x0, w))] + path
                else:
                    ys = lows  # y1 .. yd
                    xs = ups[1:]  # x1 .. xd
                    involved = [
                        st.path_with_edge(deck.edge_between(xs[i], ys[i]))
                        for i in range(d)
                    ]
                    if len(set(involved)) != d:
                        raise InvariantError(
                            "algorithm-stuck", "switch edges share a path"
                        )
                    olds = [st.paths[i] for i in involved]
                    for i in sorted(involved, reverse=True):
                        del st.paths[i]
                    hat = path
                    path = [st.natural(deck.edge_between(x0, ys[0]))] + st.suffix_from(
                        olds[0], ys[0]
                    )
                    rebuilt = []
                    for i in range(d - 1):
                        rebuilt.append(
                            st.prefix_to(olds[i], xs[i])
                            + [st.natural(deck.edge_between(xs[i], ys[i + 1]))]
                            + st.suffix_from(olds[i + 1], ys[i + 1])
                        )
                    rebuilt.append(
                        st.prefix_to(olds[d - 1], xs[d - 1])
                        + [st.natural(deck.edge_between(xs[d - 1], w))]
                        + st.suffix_from(hat, w)
                    )
                    st.paths.extend(rebuilt)
                    st.check_disjoint(extra=path)
            else:
                want = PHI if deck.kind in (R2R1, R2S2) else PSI
                e = st.private_at[w][want]
                st.occupy(st.ends(e)[0])
                path = [st.natural(e)] + path

            # Hop backward across the public edge at the reached upper vertex.
            st.charge("backward-public")
            x = st.tail(path)
            f = st.public_at[x]
            w = st.ends(f)[0]
            st.occupy(w)
            path = [st.natural(f)] + path

        st.paths.append(path)
        st.check_disjoint()
        st.trace.append(
            {"step": "stored", "iteration": iteration, "count": len(st.paths)}
        )

    chokes = {st.alt[i]: v for i, v in st.chokes.items()}
    return InterconnectRun(
        paths=tuple(Path(steps=tuple(p)) for p in st.paths),
        occupied=frozenset(st.occupied),
        chokes=chokes,
        iteration=iteration,
        trace=tuple(st.trace),
        alternating=tuple(st.alt),
        forward_stops=tuple(st.forward_stops),
    )


def verify_run(rep: Representation, run: InterconnectRun) -> VerifyReport:
    """Re-check the structural guarantees of a finished run."""
    g = rep.graph
    alt = run.alternating or tuple(decompose_private(rep))
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

    # Tails at distinct S1S2 lowers; heads at distinct R2R1 uppers.
    tails = [seq[0] for seq in seqs]
    heads = [seq[-1] for seq in seqs]
    ok = all(
        vertex_role.get(t, (None, None))[1] == "lower"
        and alt[vertex_role[t][0]].kind == S1S2
        for t in tails
        if t in vertex_role
    ) and len(tails) == len({vertex_role[t][0] for t in tails if t in vertex_role})
    ok = ok and all(t in vertex_role for t in tails)
    record("tails-on-distinct-S1S2-paths", ok)
    ok = all(
        vertex_role.get(h, (None, None))[1] == "upper"
        and alt[vertex_role[h][0]].kind == R2R1
        for h in heads
        if h in vertex_role
    ) and len(heads) == len({vertex_role[h][0] for h in heads if h in vertex_role})
    ok = ok and all(h in vertex_role for h in heads)
    record("heads-on-distinct-R2R1-paths", ok)

    # Hub-count bound chain.
    n_hubs = int(hub_count(g))
    record(
        "hub-count-bound",
        n_hubs <= 2 * delta * (c1 + c2 - delta) <= 2 * c1 * c2,
    )

    # The R2R1 path exhausted in iteration t carries at most 2t - 1 hubs.
    ok = True
    for t, idx in enumerate(run.forward_stops, start=1):
        a = alt[idx]
        if len(a.upper) + len(a.lower) > 2 * t - 1:
            ok = False
    record("stop-path-growth", ok)

    return VerifyReport(passed=tuple(passed), failures=tuple(failures))
