"""Episode state: candidate space, evidence chain, projection, backtracking.

The candidate space is an antichain over the admin-region tree (no frontier
region is an ancestor of another). Each piece of evidence carries a set of
constraint region ids; applying evidence projects the space onto the leaves
it shares with them, in one downward walk that splits each frontier region
strictly containing a constraint region into its children. Contradictions
trigger a deterministic confidence-greedy backtrack that deactivates
evidence instead of deleting it, so the recorded chain is append-only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from .canonical import Raw, canonical_compose, canonical_json, sha256_hex
from .errors import InsufficientEvidenceError, UnknownRegionError
from .geo import AdminRegion, Gazetteer, GeoPoint, reverse_geocode


class EpisodeStatus(enum.Enum):
    RUNNING = "running"
    FINALIZED = "finalized"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class CandidateSpace:
    """Antichain frontier of region ids; ``is_global`` means "anywhere"."""

    frontier: frozenset[str] = frozenset()
    is_global: bool = True

    @classmethod
    def global_space(cls) -> "CandidateSpace":
        return cls(frozenset(), True)

    @property
    def is_empty(self) -> bool:
        return not self.is_global and not self.frontier

    def leaf_cover(self, g: Gazetteer) -> frozenset[str]:
        """Leaf region ids covered by the space (all leaves when global)."""
        if self.is_global:
            cover: set[str] = set()
            for root in g.roots():
                cover |= g.leaf_cover(root.id)
            return frozenset(cover)
        cover = set()
        for rid in self.frontier:
            cover |= g.leaf_cover(rid)
        return frozenset(cover)

    def to_json(self) -> dict:
        return {"is_global": self.is_global, "frontier": sorted(self.frontier)}

    @cached_property
    def canonical(self) -> Raw:
        """``canonical_json(self.to_json())``, serialized once per object,
        cached as ``Evidence.canonical`` is. The state hash and the
        Projection event that carry one space share the string."""
        return Raw(canonical_json(self.to_json()))


@dataclass(frozen=True)
class Provenance:
    """Link from evidence back to the tool result it was extracted from."""

    action_id: int
    payload_sha256: str

    def to_json(self) -> dict:
        return {"action_id": self.action_id, "payload_sha256": self.payload_sha256}


@lru_cache(maxsize=1024)
def _sorted_ids(constraint: frozenset[str]) -> tuple[tuple[str, ...], Raw]:
    """A constraint's ids in sorted order and their canonical JSON array.

    Constraints recur across evidence items (a tag table's carrier set is
    one object however many captions name the tag), so each is sorted and
    encoded once, not once per item."""
    ids = tuple(sorted(constraint))
    return ids, Raw(canonical_json(ids))


@dataclass(frozen=True)
class Evidence:
    """One verified geographic constraint extracted from a tool result.

    ``constraint`` holds the region ids the evidence points to. A region
    overlaps it when the region, an ancestor or a descendant is listed;
    the gazetteer keeps that closure per constraint (``Gazetteer.closure``),
    which ``project`` reads while it walks the tree. ``point`` is set when
    the underlying record pins exact coordinates (a POI match), which
    finalization can use as an anchor.
    """

    id: int
    source_action_id: int
    claim: str
    constraint: frozenset[str]
    confidence: float
    provenance: Provenance
    point: GeoPoint | None = None

    def __post_init__(self):
        if not self.constraint:
            raise ValueError("evidence constraint must be non-empty")
        # The per-constraint caches key on it; a frozenset is kept as it is.
        object.__setattr__(self, "constraint", frozenset(self.constraint))
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")

    @cached_property
    def canonical(self) -> Raw:
        """``canonical_json(self.to_json())``, serialized once per object.

        Caching is sound because the dataclass is frozen and every field is
        immutable (ints, a string, a frozenset, a float, frozen dataclasses),
        so the serialization can never change after construction. The cache
        lives in the instance ``__dict__``, not in a field:
        ``dataclasses.replace`` builds a fresh object, which serializes
        itself again. The constraint's array is written in as encoded once
        per constraint.
        """
        return canonical_compose(self._json(_sorted_ids(self.constraint)[1]))

    def to_json(self) -> dict:
        return self._json(list(_sorted_ids(self.constraint)[0]))

    def _json(self, constraint: list[str] | Raw) -> dict:
        return {
            "id": self.id,
            "source_action_id": self.source_action_id,
            "claim": self.claim,
            "constraint": constraint,
            "confidence": self.confidence,
            "provenance": self.provenance.to_json(),
            "point": self.point.to_json() if self.point else None,
        }


@dataclass(frozen=True)
class PoiHint:
    """Exact-coordinate anchor for finalization (from a POI-level record)."""

    point: GeoPoint
    city: str

    def to_json(self) -> dict:
        return {"lat": self.point.lat, "lon": self.point.lon, "city": self.city}


@dataclass(frozen=True)
class Prediction:
    point: GeoPoint
    city_name: str
    sample_id: str | None = None
    trace_ref: str | None = None

    def to_json(self) -> dict:
        out = {"lat": self.point.lat, "lon": self.point.lon, "city_name": self.city_name}
        if self.sample_id is not None:
            out["sample_id"] = self.sample_id
        if self.trace_ref is not None:
            out["trace_ref"] = self.trace_ref
        return out


@dataclass(frozen=True)
class EpisodeState:
    """Snapshot of one localization episode at a step boundary."""

    step: int = 0
    space: CandidateSpace = field(default_factory=CandidateSpace.global_space)
    chain: tuple[Evidence, ...] = ()
    inactive_ids: frozenset[int] = frozenset()
    status: EpisodeStatus = EpisodeStatus.RUNNING
    prediction: Prediction | None = None

    def active_evidence(self) -> tuple[Evidence, ...]:
        return tuple(e for e in self.chain if e.id not in self.inactive_ids)

    def to_json(self) -> dict:
        return {
            "chain": [e.to_json() for e in self.chain],
            "step": self.step,
            "status": self.status.value,
            "space": self.space.to_json(),
            "inactive_ids": sorted(self.inactive_ids),
            "prediction": self.prediction.to_json() if self.prediction else None,
        }

    @cached_property
    def canonical(self) -> Raw:
        """Canonical JSON of the state, byte-equal to ``canonical_json(to_json())``,
        composed from the chain's and the space's cached encodings, so each
        evidence item and each space is serialized once, however many states
        and events share it."""
        return canonical_compose({
            "chain": [e.canonical for e in self.chain],
            "step": self.step,
            "status": self.status.value,
            "space": self.space.canonical,
            "inactive_ids": sorted(self.inactive_ids),
            "prediction": self.prediction.to_json() if self.prediction else None,
        })

    @cached_property
    def snapshot_hash(self) -> str:
        """SHA-256 of ``canonical``, computed once per state object.

        The state is frozen and all its fields are immutable, so the hash
        cannot go stale; a ``dataclasses.replace`` copy is a new object and
        hashes itself. Consecutive trace events that record the same state
        object share one serialization.
        """
        return sha256_hex(self.canonical)


def antichain_reduce(region_ids: frozenset[str] | set[str], g: Gazetteer) -> frozenset[str]:
    """Drop every region that has a strict ancestor in the set (the
    ``top`` of its ``g.closure``), raising ``UnknownRegionError`` for an
    id the gazetteer lacks.

    Keeping the ancestor preserves the leaf cover: a listed descendant adds
    nothing the ancestor does not already cover.
    """
    closure = g.closure(frozenset(region_ids))
    if closure.unknown is not None:
        raise UnknownRegionError(closure.unknown)
    return closure.top


def project(space: CandidateSpace, e: Evidence, g: Gazetteer) -> CandidateSpace:
    """Project the space onto the part that overlaps one evidence.

    A global space collapses to the antichain-reduced constraint set; it
    raises ``UnknownRegionError`` for a constraint id the gazetteer lacks.
    Otherwise one downward walk from the frontier splits each region that
    strictly contains a constraint region (one in the closure's ``above``)
    into its children, and keeps any other region exactly when it or one
    of its ancestors is in the constraint (it is in ``covered``). Unknown
    constraint ids match nothing there. Both sets come from
    ``g.closure``, computed once per constraint, so a step costs one set
    lookup per region walked. The result is an antichain whenever the
    frontier is one. An empty result signals contradiction in the returned
    value; it never raises for that.
    """
    if space.is_global:
        return CandidateSpace(antichain_reduce(e.constraint, g), False)
    closure = g.closure(e.constraint)
    kept: set[str] = set()
    # Reverse-sorted so the smallest unknown frontier id is the one reported.
    stack = sorted(space.frontier, reverse=True)
    while stack:
        rid = stack.pop()
        if rid not in g:
            raise UnknownRegionError(rid)
        if rid in closure.above:
            stack.extend(g.children(rid))
        elif rid in closure.covered:
            kept.add(rid)
    return CandidateSpace(frozenset(kept), False)


def _fold(space: CandidateSpace, evs: list[Evidence], g: Gazetteer) -> CandidateSpace:
    for e in evs:
        space = project(space, e, g)
        if space.is_empty:
            break
    return space


@dataclass(frozen=True)
class Backtrack:
    """Record of one evidence deactivation during conflict resolution."""

    evidence_id: int
    stage: str  # "step" (among this step's evidence) or "chain" (whole chain)

    def to_json(self) -> dict:
        return {"evidence_id": self.evidence_id, "stage": self.stage}


@dataclass(frozen=True)
class ApplyReport:
    state: "EpisodeState"
    backtracks: tuple[Backtrack, ...] = ()


def _lowest_confidence(evs: list[Evidence]) -> Evidence:
    # Ties discard the highest id first.
    return min(evs, key=lambda e: (e.confidence, -e.id))


def apply_evidence_report(state: EpisodeState, evs: list[Evidence], g: Gazetteer) -> ApplyReport:
    """Append evidence, project, and resolve contradictions; full report.

    Conflict resolution is two-staged and deterministic:
      1. deactivate the lowest-confidence evidence among the ones applied
         this step (ties: highest id) and re-project from the pre-step space;
      2. if still empty, repeatedly deactivate the lowest-confidence active
         evidence in the whole chain and recompute the space from scratch,
         until non-empty or nothing is active (then the space is global).
    """
    if state.status is not EpisodeStatus.RUNNING:
        raise ValueError(f"cannot apply evidence in status {state.status.value}")
    evs = sorted(evs, key=lambda e: e.id)
    chain = state.chain + tuple(evs)
    inactive = set(state.inactive_ids)
    backtracks: list[Backtrack] = []

    applied = list(evs)
    space = _fold(state.space, applied, g)

    if space.is_empty and applied:
        drop = _lowest_confidence(applied)
        inactive.add(drop.id)
        backtracks.append(Backtrack(drop.id, "step"))
        applied = [e for e in applied if e.id != drop.id]
        space = _fold(state.space, applied, g)

    while space.is_empty:
        active = [e for e in chain if e.id not in inactive]
        if not active:
            space = CandidateSpace.global_space()
            break
        drop = _lowest_confidence(active)
        inactive.add(drop.id)
        backtracks.append(Backtrack(drop.id, "chain"))
        active = [e for e in active if e.id != drop.id]
        space = _fold(CandidateSpace.global_space(), active, g)

    new_state = replace(
        state,
        step=state.step + 1,
        space=space,
        chain=chain,
        inactive_ids=frozenset(inactive),
    )
    return ApplyReport(new_state, tuple(backtracks))


def finalize(
    state: EpisodeState, g: Gazetteer, poi_hint: PoiHint | None = None
) -> tuple[EpisodeState, Prediction]:
    """Turn the narrowed space into a point prediction and mark Finalized.

    Precedence: an exact-coordinate hint wins; otherwise the centroid of the
    finest-level frontier region (ties: smallest id). The city name comes
    from the region's city-level ancestor, falling back to reverse geocoding
    for coarser regions.
    """
    if state.status is not EpisodeStatus.RUNNING:
        raise ValueError(f"cannot finalize in status {state.status.value}")
    if state.space.is_global or state.space.is_empty:
        raise InsufficientEvidenceError("candidate space is global; nothing to finalize")

    if poi_hint is not None:
        pred = Prediction(point=poi_hint.point, city_name=poi_hint.city)
    else:
        chosen: AdminRegion | None = None
        for rid in sorted(state.space.frontier):
            r = g.get(rid)
            if chosen is None or r.level.depth > chosen.level.depth:
                chosen = r
        assert chosen is not None
        city = g.city_ancestor(chosen.id)
        if city is not None:
            city_name = city.name
        else:
            rg = reverse_geocode(g, chosen.centroid)
            city_name = rg.name if rg is not None else chosen.name
        pred = Prediction(point=chosen.centroid, city_name=city_name)

    final_state = replace(state, status=EpisodeStatus.FINALIZED, prediction=pred)
    return final_state, pred
