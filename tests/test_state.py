"""Candidate space, evidence projection, and backtracking semantics.

The deep checks work against an independent leaf-set model: a region tree
constraint system is equivalent to set algebra over leaf covers, so the
tests recompute every operation as plain set intersections and compare.
"""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_gazetteer
from geoprobe import geo
from geoprobe.actions import Action, CapabilityModule, Tool
from geoprobe.canonical import canonical_hash, canonical_json
from geoprobe.errors import InsufficientEvidenceError, UnknownRegionError
from geoprobe.executor import ToolResult, ToolStatus
from geoprobe.geo import GeoPoint
from geoprobe.recorder import EventKind, TrajectoryEvent
from geoprobe.state import (
    ApplyReport,
    CandidateSpace,
    EpisodeState,
    EpisodeStatus,
    Evidence,
    PoiHint,
    Prediction,
    Provenance,
    antichain_reduce,
    apply_evidence_report,
    finalize,
    project,
)
from geoprobe.synthworld import generate_world

PROV = Provenance(action_id=0, payload_sha256="0" * 64)

SRC = Path(__file__).resolve().parent.parent / "src"


def ev(eid, constraint, conf=0.9, point=None):
    return Evidence(
        id=eid,
        source_action_id=eid,
        claim=f"clue {eid}",
        constraint=frozenset(constraint),
        confidence=conf,
        provenance=PROV,
        point=point,
    )


def cover(g, rids):
    out = set()
    for rid in rids:
        out |= g.leaf_cover(rid)
    return out


def space_cover(g, space):
    return set(space.leaf_cover(g))


ALL_IDS = [
    "cn", "cn-a", "cn-a-1", "cn-a-1-x", "cn-a-1-y", "cn-a-2", "cn-b", "cn-b-1",
    "jp", "jp-a", "jp-a-1",
]


class TestEvidence:
    def test_empty_constraint_rejected(self):
        with pytest.raises(ValueError):
            ev(1, [])

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            ev(1, ["cn"], conf=1.5)
        with pytest.raises(ValueError):
            ev(1, ["cn"], conf=-0.1)

    def test_items_sharing_a_constraint_encode_apart(self):
        """Items over one constraint object (as captions of one tag are)
        each encode as ``canonical_json(to_json())``, and a caller that
        edits one ``to_json()`` list changes no other item's JSON and no
        encoding. A constraint given as a set is held as a frozenset."""
        shared = frozenset({"jp", "cn-b", "cn-a-1"})
        a, b = ev(1, shared), ev(2, shared, conf=0.5)
        assert a.constraint is b.constraint
        assert replace(a, constraint=set(shared)).canonical == a.canonical
        assert a.canonical == canonical_json(a.to_json())
        edited = a.to_json()["constraint"]
        edited.append("zz")
        edited.reverse()
        for e in (a, b):
            assert e.to_json()["constraint"] == ["cn-a-1", "cn-b", "jp"]
            assert e.canonical == canonical_json(e.to_json())
            assert '"constraint":["cn-a-1","cn-b","jp"]' in e.canonical


def overlaps(region_id, constraint, g):
    """Whether a one-region frontier keeps anything after projection."""
    space = CandidateSpace(frozenset({region_id}), False)
    return not project(space, ev(1, constraint), g).is_empty


class TestConsistent:
    """A region is consistent with evidence when its one-region projection
    is non-empty: the region, an ancestor or a descendant is constrained."""

    def test_direct_member(self, gaz):
        assert overlaps("cn-a", ["cn-a"], gaz)

    def test_ancestor_in_constraint(self, gaz):
        assert overlaps("cn-a-1-x", ["cn"], gaz)

    def test_descendant_in_constraint(self, gaz):
        assert overlaps("cn", ["cn-a-1-x"], gaz)

    def test_disjoint_subtrees(self, gaz):
        assert not overlaps("jp", ["cn-a"], gaz)
        assert not overlaps("cn-a-2", ["cn-a-1"], gaz)

    def test_unknown_region(self, gaz):
        with pytest.raises(UnknownRegionError):
            overlaps("ghost", ["cn"], gaz)

    def test_matches_leaf_cover_overlap_everywhere(self, gaz):
        # Exhaustive oracle: consistency is exactly leaf-cover overlap.
        rng = random.Random(7)
        for _ in range(200):
            c = rng.sample(ALL_IDS, rng.randint(1, 3))
            for rid in ALL_IDS:
                expect = bool(cover(gaz, [rid]) & cover(gaz, c))
                assert overlaps(rid, c, gaz) == expect, (rid, c)


class TestAntichainReduce:
    def test_drops_descendants(self, gaz):
        got = antichain_reduce({"cn-a", "cn-a-1", "cn-a-1-x"}, gaz)
        assert got == {"cn-a"}

    def test_keeps_incomparable(self, gaz):
        got = antichain_reduce({"cn-a-1", "cn-a-2", "jp"}, gaz)
        assert got == {"cn-a-1", "cn-a-2", "jp"}

    def test_unknown_region(self, gaz):
        with pytest.raises(UnknownRegionError):
            antichain_reduce({"ghost"}, gaz)

    def test_preserves_cover(self, gaz):
        rng = random.Random(11)
        for _ in range(100):
            ids = set(rng.sample(ALL_IDS, rng.randint(1, 6)))
            red = antichain_reduce(ids, gaz)
            assert cover(gaz, red) == cover(gaz, ids)
            # Result is an antichain.
            for rid in red:
                assert not any(a in red for a in gaz.ancestors(rid))


class TestProject:
    def test_global_collapses_to_constraint(self, gaz):
        s = project(CandidateSpace.global_space(), ev(1, ["cn-a", "cn-a-1"]), gaz)
        assert not s.is_global
        assert s.frontier == {"cn-a"}

    def test_keeps_consistent_frontier(self, gaz):
        s = CandidateSpace(frozenset({"cn-a-1", "cn-a-2", "jp-a-1"}), False)
        got = project(s, ev(1, ["cn-a"]), gaz)
        assert got.frontier == {"cn-a-1", "cn-a-2"}

    def test_refines_into_children(self, gaz):
        s = CandidateSpace(frozenset({"cn"}), False)
        got = project(s, ev(1, ["cn-a-1"]), gaz)
        assert got.frontier == {"cn-a-1"}

    def test_refines_to_constraint_depth_only(self, gaz):
        s = CandidateSpace(frozenset({"cn"}), False)
        got = project(s, ev(1, ["cn-a"]), gaz)
        assert got.frontier == {"cn-a"}

    def test_empty_result_signals_contradiction(self, gaz):
        s = CandidateSpace(frozenset({"jp"}), False)
        got = project(s, ev(1, ["cn-a"]), gaz)
        assert got.is_empty
        assert not got.is_global

    def test_exact_leaf_cover_intersection(self, gaz):
        # Projection must equal leaf-set intersection, for random spaces
        # and random constraints alike.
        rng = random.Random(13)
        for _ in range(300):
            fr = antichain_reduce(set(rng.sample(ALL_IDS, rng.randint(1, 4))), gaz)
            s = CandidateSpace(fr, False)
            c = rng.sample(ALL_IDS, rng.randint(1, 3))
            got = project(s, ev(1, c), gaz)
            assert space_cover(gaz, got) == space_cover(gaz, s) & cover(gaz, c), (fr, c)
            for rid in got.frontier:
                assert not any(a in got.frontier for a in gaz.ancestors(rid))

    def test_global_leaf_cover(self, gaz):
        assert space_cover(gaz, CandidateSpace.global_space()) == {
            "cn-a-1-x", "cn-a-1-y", "cn-a-2", "cn-b-1", "jp-a-1",
        }

    def test_unknown_frontier_id_raises(self, gaz):
        s = CandidateSpace(frozenset({"cn-a", "ghost-b", "ghost-a"}), False)
        with pytest.raises(UnknownRegionError) as exc:
            project(s, ev(1, ["cn"]), gaz)
        assert exc.value.region_id == "ghost-a"

    def test_unknown_constraint_ids_ignored_on_non_global(self, gaz):
        s = CandidateSpace(frozenset({"cn"}), False)
        assert project(s, ev(1, ["ghost", "cn-a-1"]), gaz).frontier == {"cn-a-1"}
        assert project(s, ev(1, ["ghost"]), gaz).is_empty

    def test_unknown_constraint_ids_raise_on_global(self, gaz):
        with pytest.raises(UnknownRegionError):
            project(CandidateSpace.global_space(), ev(1, ["cn-a", "ghost"]), gaz)

    def test_smallest_unknown_id_is_reported_under_any_hash_seed(self):
        """A constraint's iteration order follows ``PYTHONHASHSEED``; the id
        reported, by the closure and by the Caption check, must not. Under
        seeds 1 and 3 the first id in iteration order differs."""
        code = textwrap.dedent("""
            from geoprobe.actions import Tool
            from geoprobe.errors import UnknownRegionError
            from geoprobe.executor import ToolResult, ToolStatus, extract_evidence
            from geoprobe.state import antichain_reduce
            from geoprobe.synthworld import generate_world

            g = generate_world(11, 3, 5).gazetteer
            ids = frozenset({"ghost-c", "ghost-b", "ghost-a", "r0"})
            caption = ToolResult(1, Tool.CAPTION, ToolStatus.OK, {"tags": ["t"]})
            for check in (lambda: antichain_reduce(ids, g),
                          lambda: extract_evidence(caption, g, {"t": ids})):
                try:
                    check()
                except UnknownRegionError as exc:
                    print(exc.region_id)
        """)
        reported = []
        for seed in ("1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            reported.append(proc.stdout.split())
        assert reported == [["ghost-a", "ghost-a"]] * 2


# -- the recursive projection, kept as the reference for ``project`` ---------


def _oracle_consistent(region_id, e, g):
    """True iff the region, one of its ancestors, or one of its descendants
    appears in the evidence constraint."""
    if region_id not in g:
        raise UnknownRegionError(region_id)
    if region_id in e.constraint:
        return True
    if any(a in e.constraint for a in g.ancestors(region_id)):
        return True
    return not e.constraint.isdisjoint(g.descendants(region_id))


def _oracle_refine(region_id, e, g):
    """Consistent fragment of a region, pushed down to constraint depth.

    A region that strictly contains a constraint region is replaced by its
    consistent children, recursively, until no kept region strictly contains
    a constraint region (or there are no children to refine into).
    """
    strictly_contains = not e.constraint.isdisjoint(g.descendants(region_id))
    children = g.children(region_id)
    if not strictly_contains or not children:
        return [region_id]
    kept = []
    for child in children:
        if _oracle_consistent(child, e, g):
            kept.extend(_oracle_refine(child, e, g))
    return kept


def _oracle_reduce(region_ids, g):
    """Every region of the set without a strict ancestor in it, found by
    walking each one's ancestors; the smallest unknown id raises."""
    for rid in sorted(region_ids):
        if rid not in g:
            raise UnknownRegionError(rid)
    return frozenset(rid for rid in region_ids if region_ids.isdisjoint(g.ancestors(rid)))


def _project_oracle(space, e, g):
    """Project the space onto the subset consistent with one evidence.

    A global space collapses to the antichain-reduced constraint set. An
    empty result signals contradiction in the returned value; it never
    raises for that.
    """
    if space.is_global:
        return CandidateSpace(_oracle_reduce(e.constraint, g), False)
    kept = set()
    for rid in sorted(space.frontier):
        if rid not in g:
            raise UnknownRegionError(rid)
        if _oracle_consistent(rid, e, g):
            kept.update(_oracle_refine(rid, e, g))
    return CandidateSpace(_oracle_reduce(kept, g), False)


def _outcome(fn, space, e, g):
    """The projected space, or the unknown region id it raised for."""
    try:
        return fn(space, e, g)
    except UnknownRegionError as exc:
        return ("unknown", exc.region_id)


#: Gazetteers ``project`` is checked on against the oracle: the hand-built
#: four-level tree and two three-level synthetic worlds (3×5 and 5×3) that
#: share ids but not trees.
ORACLE_GAZETTEERS = {
    "small": small_gazetteer(),
    "synth-3x5": generate_world(11, 3, 5).gazetteer,
    "synth-5x3": generate_world(11, 5, 3).gazetteer,
}


GHOSTS = ["ghost", "zz-ghost", "a-ghost"]


class TestProjectEqualsOracle:
    @given(st.data(), st.permutations(sorted(ORACLE_GAZETTEERS)), st.booleans())
    def test_random_antichains_and_constraints(self, data, names, is_global):
        """One constraint object, drawn from a gazetteer's ids with some of
        their own ancestors, ids of a second gazetteer and ids neither
        knows, is projected under both, twice under each (the second call
        reads the cached closure), and every outcome, an unknown id raised
        included, equals the reference. Only a constraint the gazetteer
        fully knows is cached."""
        g = ORACLE_GAZETTEERS[names[0]]
        picked = data.draw(
            st.lists(st.sampled_from([r.id for r in g.regions()]), min_size=1, max_size=4))
        ancestors = [a for rid in picked for a in g.ancestors(rid)]
        constraint = picked + data.draw(st.lists(st.sampled_from(ancestors or GHOSTS),
                                                 max_size=2))
        constraint += data.draw(st.lists(st.sampled_from(
            GHOSTS + [r.id for r in ORACLE_GAZETTEERS[names[1]].regions()]), max_size=2))
        e = ev(1, constraint)
        for name in names[:2]:
            g = ORACLE_GAZETTEERS[name]
            ids = [r.id for r in g.regions()]
            frontier = antichain_reduce(
                set(data.draw(st.lists(st.sampled_from(ids), max_size=6))), g)
            frontier |= data.draw(st.frozensets(st.sampled_from(GHOSTS)))
            space = CandidateSpace(frozenset() if is_global else frontier, is_global)
            expected = _outcome(_project_oracle, space, e, g)
            for _ in range(2):
                assert _outcome(project, space, e, g) == expected
            closure = g.closure(e.constraint)
            assert (g.closure(e.constraint) is closure) == (closure.unknown is None)

    def test_every_antichain_and_small_constraint(self, gaz):
        antichains = {
            antichain_reduce(set(ids), gaz)
            for n in range(len(ALL_IDS) + 1)
            for ids in itertools.combinations(ALL_IDS, n)
        }
        constraints = [c for n in range(1, 5) for c in itertools.combinations(ALL_IDS, n)]
        for fr in antichains:
            space = CandidateSpace(fr, False)
            for c in constraints:
                e = ev(1, c)
                assert project(space, e, gaz) == _project_oracle(space, e, gaz), (fr, c)

    def test_threads_projecting_on_two_gazetteers_get_the_reference(self, monkeypatch):
        """Threads project shared constraint objects on two gazetteers with
        the same ids but different trees, under a short switch interval and
        a closure cache small enough to be cleared beneath them; each gets
        the reference result, so no closure crosses gazetteers."""
        monkeypatch.setattr(geo, "CLOSURE_CACHE_SIZE", 4)
        gazetteers = [generate_world(11, 3, 5).gazetteer, generate_world(11, 5, 3).gazetteer]
        shared = sorted({r.id for r in gazetteers[0].regions()}
                        & {r.id for r in gazetteers[1].regions()})
        rng = random.Random(3)
        cases = []
        for _ in range(60):
            e = ev(1, rng.sample(shared, rng.randint(1, 3)))
            for g in gazetteers:
                for space in (CandidateSpace.global_space(),
                              CandidateSpace(frozenset({"r0"}), False)):
                    cases.append((space, e, g, _project_oracle(space, e, g)))

        def check(seed):
            order = random.Random(seed).sample(cases, len(cases))
            return all(project(space, e, g) == expected for space, e, g, expected in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(check, seed) for seed in range(16)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)


def leafsim(g, steps):
    """Independent model of apply_evidence_report over leaf sets.

    space: None means global; otherwise a set of leaf ids. Returns the final
    (space, inactive, backtracks) triple for comparison with the real thing.
    """
    all_chain = []
    inactive = set()
    backtracks = []
    space = None

    def fold(base, evs):
        s = base
        for e in evs:
            c = cover(g, e.constraint)
            s = set(c) if s is None else s & c
        return s

    def lowest(evs):
        return min(evs, key=lambda e: (e.confidence, -e.id))

    for evs in steps:
        evs = sorted(evs, key=lambda e: e.id)
        all_chain.extend(evs)
        applied = list(evs)
        cur = fold(space, applied)
        if cur is not None and not cur and applied:
            drop = lowest(applied)
            inactive.add(drop.id)
            backtracks.append((drop.id, "step"))
            applied = [e for e in applied if e.id != drop.id]
            cur = fold(space, applied)
        while cur is not None and not cur:
            active = [e for e in all_chain if e.id not in inactive]
            if not active:
                cur = None
                break
            drop = lowest(active)
            inactive.add(drop.id)
            backtracks.append((drop.id, "chain"))
            active = [e for e in active if e.id != drop.id]
            cur = fold(None, active) if active else None
        space = cur
    return space, inactive, backtracks


class TestApplyEvidence:
    def test_simple_narrowing(self, gaz):
        s0 = EpisodeState()
        s1 = apply_evidence_report(s0, [ev(1, ["cn-a"])], gaz).state
        assert s1.step == 1
        assert s1.space.frontier == {"cn-a"}
        s2 = apply_evidence_report(s1, [ev(2, ["cn-a-1"])], gaz).state
        assert s2.space.frontier == {"cn-a-1"}
        assert [e.id for e in s2.chain] == [1, 2]
        assert s2.inactive_ids == frozenset()

    def test_empty_step_advances_only_counter(self, gaz):
        s0 = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a"])], gaz).state
        s1 = apply_evidence_report(s0, [], gaz).state
        assert s1.step == s0.step + 1
        assert s1.space == s0.space
        assert s1.chain == s0.chain

    def test_step_evidence_sorted_by_id(self, gaz):
        s = apply_evidence_report(EpisodeState(), [ev(5, ["cn-a"]), ev(3, ["cn"])], gaz).state
        assert [e.id for e in s.chain] == [3, 5]

    def test_stage1_drops_lowest_confidence_this_step(self, gaz):
        rep = apply_evidence_report(
            EpisodeState(), [ev(1, ["cn-a"], conf=0.9), ev(2, ["jp"], conf=0.5)], gaz
        )
        assert [(b.evidence_id, b.stage) for b in rep.backtracks] == [(2, "step")]
        assert rep.state.space.frontier == {"cn-a"}
        assert rep.state.inactive_ids == {2}
        assert [e.id for e in rep.state.chain] == [1, 2]  # kept in chain

    def test_stage1_tie_drops_highest_id(self, gaz):
        rep = apply_evidence_report(
            EpisodeState(), [ev(1, ["cn-a"], conf=0.7), ev(2, ["jp"], conf=0.7)], gaz
        )
        assert rep.state.inactive_ids == {2}
        assert rep.state.space.frontier == {"cn-a"}

    def test_stage2_reaches_into_prior_steps(self, gaz):
        s1 = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a-1"], conf=0.6)], gaz).state
        rep = apply_evidence_report(
            s1, [ev(2, ["cn-b"], conf=0.9), ev(3, ["cn-b-1"], conf=0.8)], gaz
        )
        # Stage 1 drops id 3 (lowest confidence this step); still empty
        # against the pre-step space, so stage 2 drops id 1 from the chain
        # and recomputes from scratch.
        assert [(b.evidence_id, b.stage) for b in rep.backtracks] == [(3, "step"), (1, "chain")]
        assert rep.state.space.frontier == {"cn-b"}
        assert rep.state.inactive_ids == {1, 3}
        assert [e.id for e in rep.state.chain] == [1, 2, 3]

    def test_deactivated_not_deleted(self, gaz):
        s1 = apply_evidence_report(
            EpisodeState(), [ev(1, ["cn-a"], conf=0.9), ev(2, ["jp"], conf=0.5)], gaz).state
        assert len(s1.chain) == 2
        assert [e.id for e in s1.active_evidence()] == [1]

    def test_apply_after_finalize_rejected(self, gaz):
        s = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a-1"])], gaz).state
        s, _ = finalize(s, gaz)
        with pytest.raises(ValueError):
            apply_evidence_report(s, [ev(2, ["cn"])], gaz)

    def test_matches_leaf_set_simulator(self, gaz):
        # The load-bearing oracle: replay random multi-step scenarios through
        # an independent leaf-set model and demand identical outcomes.
        rng = random.Random(20250823)
        confs = [0.3, 0.5, 0.7, 0.9]
        for trial in range(250):
            nsteps = rng.randint(1, 4)
            steps, next_id = [], 1
            for _ in range(nsteps):
                n = rng.randint(0, 3)
                evs = []
                for _ in range(n):
                    evs.append(
                        ev(next_id, rng.sample(ALL_IDS, rng.randint(1, 3)), rng.choice(confs))
                    )
                    next_id += 1
                steps.append(evs)

            state = EpisodeState()
            got_backtracks = []
            for evs in steps:
                rep = apply_evidence_report(state, list(evs), gaz)
                state = rep.state
                got_backtracks.extend((b.evidence_id, b.stage) for b in rep.backtracks)

            want_space, want_inactive, want_backtracks = leafsim(gaz, steps)
            if want_space is None:
                assert state.space.is_global, (trial, steps)
            else:
                assert space_cover(gaz, state.space) == want_space, (trial, steps)
            assert set(state.inactive_ids) == want_inactive, (trial, steps)
            assert got_backtracks == want_backtracks, (trial, steps)
            assert state.step == nsteps
            # The space is never left empty.
            assert not state.space.is_empty

    @given(st.lists(st.sampled_from(ALL_IDS), min_size=1, max_size=3, unique=True))
    def test_single_evidence_never_empties(self, constraint):
        g = small_gazetteer()
        s = apply_evidence_report(EpisodeState(), [ev(1, constraint)], g).state
        assert not s.space.is_empty
        assert space_cover(g, s.space) == cover(g, constraint)


class TestFinalize:
    def test_global_space_rejected(self, gaz):
        with pytest.raises(InsufficientEvidenceError):
            finalize(EpisodeState(), gaz)

    def test_city_frontier(self, gaz):
        s = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a-1"])], gaz).state
        s, pred = finalize(s, gaz)
        assert s.status is EpisodeStatus.FINALIZED
        assert s.prediction == pred
        assert pred.point == gaz.get("cn-a-1").centroid
        assert pred.city_name == "Rivertown"

    def test_district_frontier_uses_city_ancestor(self, gaz):
        s = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a-1-x"])], gaz).state
        _, pred = finalize(s, gaz)
        assert pred.point == gaz.get("cn-a-1-x").centroid
        assert pred.city_name == "Rivertown"

    def test_province_frontier_reverse_geocodes(self, gaz):
        s = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a"])], gaz).state
        _, pred = finalize(s, gaz)
        assert pred.point == gaz.get("cn-a").centroid
        # (30, 114) is outside every city disc but within the 100 km
        # fallback of Rivertown's centroid.
        assert pred.city_name == "Rivertown"

    def test_finest_level_wins(self, gaz):
        s = EpisodeState(space=CandidateSpace(frozenset({"cn-b", "cn-a-1"}), False), step=1)
        _, pred = finalize(s, gaz)
        assert pred.point == gaz.get("cn-a-1").centroid
        assert pred.city_name == "Rivertown"

    def test_level_tie_smallest_id(self, gaz):
        s = EpisodeState(space=CandidateSpace(frozenset({"cn-b-1", "cn-a-1"}), False), step=1)
        _, pred = finalize(s, gaz)
        assert pred.city_name == "Rivertown"  # cn-a-1 < cn-b-1

    def test_poi_hint_wins(self, gaz):
        s = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a-1"])], gaz).state
        hint = PoiHint(GeoPoint(30.55, 114.28), "Rivertown")
        _, pred = finalize(s, gaz, poi_hint=hint)
        assert pred.point == GeoPoint(30.55, 114.28)
        assert pred.city_name == "Rivertown"

    def test_double_finalize_rejected(self, gaz):
        s = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a-1"])], gaz).state
        s, _ = finalize(s, gaz)
        with pytest.raises(ValueError):
            finalize(s, gaz)


def _frozen_examples():
    point = GeoPoint(30.5, 114.3)
    action = Action(1, CapabilityModule.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})
    return [
        CandidateSpace(frozenset({"cn-a"}), False),
        ev(1, ["cn-a"], point=point),
        PoiHint(point, "Rivertown"),
        Prediction(point, "Rivertown", "s1", "t.jsonl"),
        EpisodeState(),
        ToolResult.succeed(action, {"caption": "x"}, latency_ms=1.0),
    ]


@pytest.mark.parametrize("obj", _frozen_examples(), ids=lambda obj: type(obj).__name__)
def test_every_field_is_frozen(obj):
    """``Evidence.canonical``, ``EpisodeState.snapshot_hash`` and
    ``ToolResult.payload_sha256`` cache on the instance what they serialize,
    which is sound only while no field can be reassigned."""
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


class TestSnapshots:
    def test_hash_stable_for_equal_states(self, gaz):
        a = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a"])], gaz).state
        b = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a"])], gaz).state
        assert a.snapshot_hash == b.snapshot_hash

    def test_hash_changes_with_state(self, gaz):
        a = apply_evidence_report(EpisodeState(), [ev(1, ["cn-a"])], gaz).state
        b = apply_evidence_report(a, [ev(2, ["cn-a-1"])], gaz).state
        assert a.snapshot_hash != b.snapshot_hash

    def test_canonical_is_deterministic(self, gaz):
        a = apply_evidence_report(
            EpisodeState(), [ev(1, ["cn-a"], point=GeoPoint(30, 114))], gaz).state
        assert a.canonical == a.canonical
        assert '"step":1' in a.canonical

    def test_prediction_json_roundtrip(self):
        p = Prediction(GeoPoint(1, 2), "rivertown", sample_id="s1", trace_ref="t/1")
        assert p.to_json() == {"lat": 1, "lon": 2, "city_name": "rivertown",
                               "sample_id": "s1", "trace_ref": "t/1"}
        bare = Prediction(GeoPoint(1, 2), "x")
        assert bare.to_json() == {"lat": 1, "lon": 2, "city_name": "x"}

    def test_poi_hint_json_roundtrip(self):
        h = PoiHint(GeoPoint(3, 4), "lakeside")
        assert h.to_json() == {"lat": 3, "lon": 4, "city": "lakeside"}

    def test_apply_report_is_value(self, gaz):
        rep = apply_evidence_report(EpisodeState(), [ev(1, ["cn"])], gaz)
        assert isinstance(rep, ApplyReport)
        assert rep.backtracks == ()


# -- canonical serialization and state hashes --------------------------------

# Text with non-ASCII letters, quotes, backslashes, control characters and
# the key text a splice into an encoded line would search for.
TRICKY_TEXT = st.text(max_size=8) | st.lists(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "é", "市", "a",
                     ',"status":', ',"seq":', ',"payload_sha256":', '"payload":']),
    max_size=8,
).map("".join)
POINTS = st.builds(
    GeoPoint,
    st.floats(-90.0, 90.0, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
)
CONSTRAINTS = st.frozensets(TRICKY_TEXT, min_size=1, max_size=3)


def evidence(constraints=CONSTRAINTS):
    return st.builds(
        Evidence,
        id=st.integers(0, 10**6),
        source_action_id=st.integers(0, 10**6),
        claim=TRICKY_TEXT,
        constraint=constraints,
        confidence=st.floats(0.0, 1.0, allow_nan=False),
        provenance=st.builds(Provenance, st.integers(0, 10**6), TRICKY_TEXT),
        point=st.none() | POINTS,
    )


EVIDENCE = evidence()
#: Chains whose items may share one constraint object, as the captions of
#: one tag share the tag table's carrier set.
CHAINS = st.lists(CONSTRAINTS, min_size=1, max_size=2).flatmap(
    lambda pool: st.lists(evidence(st.sampled_from(pool)), max_size=3)).map(tuple)
PREDICTIONS = st.builds(
    Prediction,
    point=POINTS,
    city_name=TRICKY_TEXT,
    sample_id=st.none() | TRICKY_TEXT,
    trace_ref=st.none() | TRICKY_TEXT,
)
SPACES = st.builds(CandidateSpace, st.frozensets(TRICKY_TEXT, max_size=3), st.booleans())
STATES = st.builds(
    EpisodeState,
    step=st.integers(0, 10**6),
    space=SPACES,
    chain=CHAINS,
    inactive_ids=st.frozensets(st.integers(0, 10**6), max_size=4),
    status=st.sampled_from(list(EpisodeStatus)),
    prediction=st.none() | PREDICTIONS,
)


PAYLOADS = st.dictionaries(TRICKY_TEXT, st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | TRICKY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TRICKY_TEXT, inner, max_size=3),
    max_leaves=8), max_size=4)
LATENCIES = st.floats(0.0, 1e6, allow_nan=False)
RESULTS = st.builds(
    ToolResult, st.integers(0, 10**6), st.sampled_from(list(Tool)), st.just(ToolStatus.OK),
    PAYLOADS, latency_ms=LATENCIES,
) | st.builds(
    ToolResult, st.integers(0, 10**6), st.sampled_from(list(Tool)),
    st.sampled_from([ToolStatus.TOOL_ERROR, ToolStatus.TIMEOUT]), st.none(), TRICKY_TEXT,
    st.none() | TRICKY_TEXT, LATENCIES,
)
EVENTS = st.builds(
    TrajectoryEvent,
    seq=st.integers(0, 10**6),
    kind=st.sampled_from(list(EventKind)),
    step=st.integers(0, 10**6),
    wall_time=st.floats(0.0, 4e9, allow_nan=False),
    payload=PAYLOADS,
    state_hash=TRICKY_TEXT,
)


class TestCanonicalComposition:
    """The composed, cached serialization equals serializing ``to_json()``."""

    @given(STATES)
    def test_canonical_and_hash_equal_to_json_serialization(self, state):
        expected = canonical_json(state.to_json())
        for _ in range(2):  # first computation, then the cached values
            assert state.canonical == expected
            assert state.snapshot_hash == canonical_hash(state.to_json())
        for e in state.chain:
            assert e.canonical == canonical_json(e.to_json())

    @given(STATES, EVIDENCE)
    def test_replaced_copy_hashes_itself(self, state, extra):
        original = state.snapshot_hash
        statuses = list(EpisodeStatus)
        other_status = statuses[(statuses.index(state.status) + 1) % len(statuses)]
        for copy in (
            replace(state, step=state.step + 1),
            replace(state, chain=state.chain + (extra,)),
            replace(state, status=other_status, prediction=None),
        ):
            assert copy.snapshot_hash == canonical_hash(copy.to_json())
            assert copy.snapshot_hash != original
        assert state.snapshot_hash == original

    @settings(max_examples=50)
    @given(RESULTS)
    def test_result_line_equal_to_json_serialization(self, result):
        assert result.canonical == canonical_json(result.to_json())

    @settings(max_examples=50)
    @given(EVENTS)
    def test_event_line_equal_to_json_serialization(self, event):
        assert event.canonical(canonical_json(event.payload)) == canonical_json(event.to_json())
