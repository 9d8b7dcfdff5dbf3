"""Finite classes, amalgam enumeration, and the n-DAP / DAP / JEP checkers."""

import copy
import itertools
from pathlib import Path

import pytest
from helpers import (all_structures, free_tuples, naive_completions, naive_dap_instance,
                     naive_embeddings, naive_jep, naive_ndap_witness)

from relex import (CapExceededError, FiniteClass, Signature, Structure,
                   amalgamation, amalgams, builtin_class, check_dap, check_jep,
                   check_ndap, embedding_exists, from_theory,
                   k_hypergraphs, load_theory, make_builtin_class,
                   parse_theory, restrict, serialize)
from relex.amalgamation import (BUILTIN_CLASS_NAMES, _amalgam_classes, _compatible,
                                _dap_instance_holds, _located_tuples, _overlaps,
                                _slot_elements, _step_classes, _steps)

GRAPHS = builtin_class("graphs")
EQUIV = builtin_class("equivalence")
SUBSETS = builtin_class("subsets")


# --- classes and enumeration ----------------------------------------------------

def test_builtin_enumeration_counts():
    assert [len(builtin_class("graphs").enumerate(n)) for n in range(5)] == [1, 1, 2, 8, 64]
    assert [len(builtin_class("digraphs").enumerate(n)) for n in range(4)] == [1, 1, 4, 64]
    assert [len(builtin_class("tournaments").enumerate(n)) for n in range(5)] == [1, 1, 2, 8, 64]
    assert [len(builtin_class("equivalence").enumerate(n)) for n in range(5)] == [1, 1, 2, 5, 15]
    assert [len(builtin_class("subsets").enumerate(n)) for n in range(4)] == [1, 2, 4, 8]
    assert [len(builtin_class("hypergraphs3").enumerate(n)) for n in range(5)] == [1, 1, 1, 2, 16]
    # every 4-point set must span an even number of triples: half survive
    assert len(builtin_class("parity3").enumerate(4)) == 8
    assert [len(builtin_class("trivial").enumerate(n)) for n in range(3)] == [1, 1, 1]


def test_enumerate_is_deterministic_consistent_with_contains():
    for name in ("graphs", "tournaments", "equivalence", "parity3"):
        klass = builtin_class(name)
        members = klass.enumerate(3)
        assert members == klass.enumerate(3)
        assert list(members) == sorted(members, key=lambda s: s.key())
        assert all(klass.contains(m) for m in members)


def test_contains_rejects_non_members():
    sig = GRAPHS.signature
    assert not GRAPHS.contains(Structure(sig, 2, {"E": [(1, 2)]}))       # asymmetric
    assert not GRAPHS.contains(Structure(sig, 1, {"E": [(1, 1)]}))       # loop
    assert not GRAPHS.contains(Structure(Signature((("F", 2),)), 2))     # wrong signature
    tournaments = builtin_class("tournaments")
    assert not tournaments.contains(Structure(sig, 2))                   # undecided pair
    assert not tournaments.contains(Structure(sig, 2, {"E": [(1, 2), (2, 1)]}))
    assert not EQUIV.contains(Structure(sig, 1))                         # missing loop


def test_cap_enforcement():
    with pytest.raises(CapExceededError):
        GRAPHS.enumerate(GRAPHS.cap + 1)
    small = make_builtin_class("graphs", cap=3)
    assert small.cap == 3
    small.enumerate(3)
    with pytest.raises(CapExceededError):
        small.enumerate(4)
    with pytest.raises(CapExceededError):
        check_ndap(GRAPHS, GRAPHS.cap + 1)
    with pytest.raises(CapExceededError):
        check_jep(GRAPHS, 4)   # joint hosts would need size 8 > cap 6


def test_builtin_class_is_shared_and_make_is_fresh():
    assert builtin_class("graphs") is builtin_class("graphs")
    assert make_builtin_class("graphs") is not builtin_class("graphs")
    with pytest.raises(KeyError):
        make_builtin_class("no-such-class")


def test_k_hypergraphs_matches_builtin_at_3():
    assert k_hypergraphs(3).enumerate(4) == builtin_class("hypergraphs3").enumerate(4)
    pairs = k_hypergraphs(2)
    # symmetric irreflexive binary relation: same count as graphs
    assert len(pairs.enumerate(3)) == 8


def test_parity3_members_are_built_not_filtered():
    parity3, triples = make_builtin_class("parity3"), make_builtin_class("hypergraphs3")
    for n in range(6):
        assert parity3.enumerate(n) == tuple(
            s for s in triples.enumerate(n) if parity3.contains(s)), n
    # one member per graph on [2, 6]: 2^C(5, 2), of 2^C(6, 3) 3-hypergraphs
    assert len(parity3.enumerate(6)) == 1024


# theory file -> (the builtin class it axiomatizes, largest size compared)
_THEORY_BUILTINS = {"graphs.th": ("graphs", 5), "digraphs_loopfree.th": ("digraphs", 4),
                    "equivalence.th": ("equivalence", 6), "hypergraphs3.th": ("hypergraphs3", 5)}


@pytest.mark.parametrize("file", sorted(_THEORY_BUILTINS))
def test_from_theory_matches_builtin(file):
    builtin, largest = _THEORY_BUILTINS[file]
    theory = load_theory(str(Path(__file__).resolve().parent.parent / "theories" / file))
    klass, reference = from_theory(theory), builtin_class(builtin)
    for n in range(largest + 1):
        members = klass.enumerate(n)
        assert members == reference.enumerate(n), n
        assert all(klass.contains(s) and reference.contains(s) for s in members)
    # non-members too: every structure on at most two points
    for n in range(3):
        for s in all_structures(theory.signature, n):
            assert klass.contains(s) == reference.contains(s), s


# --- amalgams of one family -------------------------------------------------------

def _graph(n, edges):
    sym = [(a, b) for a, b in edges] + [(b, a) for a, b in edges]
    return Structure(GRAPHS.signature, n, {"E": sym})


def test_amalgams_unique_at_three_points_for_binary_signature():
    # all tuples on [3] rest on proper subsets, so the family determines the amalgam
    s1 = _graph(2, [(1, 2)])     # stands for {2, 3}: edge 2-3
    s2 = _graph(2, [])           # stands for {1, 3}
    s3 = _graph(2, [(1, 2)])     # stands for {1, 2}: edge 1-2
    everything, reps = amalgams([s1, s2, s3], GRAPHS)
    assert len(everything) == len(reps) == 1
    amalgam = everything[0]
    assert amalgam.has("E", (2, 3)) and amalgam.has("E", (1, 2))
    assert not amalgam.has("E", (1, 3))


def test_amalgams_with_free_tuples_at_two_points():
    single = Structure(GRAPHS.signature, 1)
    everything, reps = amalgams([single, single], GRAPHS)
    # the pair 1-2 is undetermined: edge or non-edge
    assert len(everything) == 2
    assert len(reps) == 2     # non-isomorphic, so two classes
    tournaments = builtin_class("tournaments")
    everything, reps = amalgams([single, single], tournaments)
    assert len(everything) == 2              # the two orientations
    assert len(reps) == 1                    # one isomorphism class


def test_amalgams_rejects_incompatible_and_misshapen_families():
    marked = Structure(SUBSETS.signature, 2, {"P": [(2,)]})
    unmarked = Structure(SUBSETS.signature, 2)
    # element 3 is the second point of both slot-1 and slot-2 members
    with pytest.raises(ValueError, match="compatible"):
        amalgams([marked, unmarked, unmarked], SUBSETS)
    with pytest.raises(ValueError, match="slot"):
        amalgams([Structure(GRAPHS.signature, 3), _graph(2, []), _graph(2, [])], GRAPHS)


def test_amalgam_cache_key_ignores_order_and_repeats():
    # the partial is its own key: a set of pairs, however it is listed
    klass = make_builtin_class("equivalence")
    loops = [("E", (1, 1)), ("E", (2, 2))]
    first = _step_classes(klass, 2, loops)
    for pairs in (loops[::-1], loops + loops[:1]):
        assert _step_classes(klass, 2, pairs) is first
        assert _amalgam_classes(klass, 2, pairs) is first
    assert list(klass._amalgam_cache) == [(2, frozenset(loops))]
    assert [len(orbit) for orbit in first.orbits] == [1, 1]


def test_amalgam_classes_rejects_a_partial_outside_the_slots():
    # a surjective or out-of-range tuple has no bit in the cache key, so it
    # must raise rather than be looked up under another partial's key
    klass = make_builtin_class("graphs")
    for bad in ([("E", (1, 2))], [("E", (2, 1))], [("E", (1, 3))], [("E", (1,))]):
        with pytest.raises(ValueError, match="non-surjective tuple on"):
            _amalgam_classes(klass, 2, bad)
    assert klass._amalgam_cache == {}
    hypergraphs = make_builtin_class("hypergraphs3")
    with pytest.raises(ValueError, match="non-surjective tuple on"):
        _amalgam_classes(hypergraphs, 3, [("R", (3, 1, 2))])
    assert hypergraphs._amalgam_cache == {}


def test_amalgams_empty_when_no_member_extends():
    # equivalences: two cross-block links forced together violate transitivity
    full2 = Structure(EQUIV.signature, 2, {"E": [(1, 1), (2, 2), (1, 2), (2, 1)]})
    disc2 = Structure(EQUIV.signature, 2, {"E": [(1, 1), (2, 2)]})
    everything, reps = amalgams([full2, full2, disc2], EQUIV)
    assert everything == [] and reps == []


# --- n-DAP -------------------------------------------------------------------------

def test_ndap_holds_for_graphs_small():
    for n in (1, 2, 3, 4):
        report = check_ndap(GRAPHS, n)
        assert report.holds and report.witness_family is None


def test_ndap_holds_for_tournaments():
    for n in (2, 3, 4):
        assert check_ndap(builtin_class("tournaments"), n).holds


def test_ndap_fails_for_equivalences_at_three():
    report = check_ndap(EQUIV, 3)
    assert not report.holds
    family = report.witness_family
    assert family is not None and len(family) == 3
    assert all(EQUIV.contains(member) for member in family)
    everything, _ = amalgams(family, EQUIV)   # compatible by construction
    assert everything == []
    payload = report.to_json()
    assert payload["holds"] is False and len(payload["witness_family"]) == 3


def test_ndap_fails_for_parity_hypergraphs_at_four():
    report = check_ndap(builtin_class("parity3"), 4)
    assert not report.holds
    family = report.witness_family
    assert len(family) == 4
    parity3 = builtin_class("parity3")
    assert all(parity3.contains(member) for member in family)
    everything, _ = amalgams(family, parity3)
    assert everything == []
    # the same family amalgamates fine among unconstrained 3-hypergraphs
    everything, _ = amalgams(family, builtin_class("hypergraphs3"))
    assert everything


_THEORIES = sorted((Path(__file__).resolve().parent.parent / "theories").glob("*.th"))
_ORACLE_BUDGET = 10 ** 5  # families in the brute-force product
# (label, factory of a fresh instance) for every builtin and theory class
def _class_factories(theory_cap: int) -> list:
    return ([(name, lambda name=name: make_builtin_class(name)) for name in BUILTIN_CLASS_NAMES]
            + [(path.name, lambda path=path: from_theory(load_theory(str(path)), cap=theory_cap))
               for path in _THEORIES])


_CLASS_FACTORIES = _class_factories(theory_cap=4)


def _oracle_cases():
    """(class factory, n) for every builtin and theory class and every n whose
    brute-force product fits the budget."""
    cases = []
    for label, factory in _CLASS_FACTORIES:
        klass = factory()
        for n in range(1, klass.cap + 1):
            if len(klass.enumerate(n - 1)) ** n > _ORACLE_BUDGET:
                break  # the product only grows with n
            cases.append(pytest.param(factory, n, id=f"{label}-{n}"))
    return cases


def _serialized(family):
    return None if family is None else [serialize(s) for s in family]


@pytest.mark.parametrize("factory, n", _oracle_cases())
def test_ndap_matches_brute_force_product(factory, n):
    klass = factory()
    expected = naive_ndap_witness(klass, n)
    report = check_ndap(klass, n)
    assert report.holds == (expected is None)
    assert _serialized(report.witness_family) == _serialized(expected)


@pytest.mark.parametrize("factory, n", [case for case in _oracle_cases()
                                         if case.values[1] <= 3])
def test_amalgams_match_brute_force(factory, n):
    # every compatible family: its amalgams are the members whose slot
    # restrictions are the family, and its representatives the key-minimal
    # member of each isomorphism class, both in key order
    klass = factory()
    slots = [_slot_elements(n, i) for i in range(1, n + 1)]
    restrictions = {m: tuple(restrict(m, slot) for slot in slots) for m in klass.enumerate(n)}

    def on(member, i, j):  # member of slot i restricted to [n] minus {i, j}
        return restrict(member, [x - (x > i) for x in range(1, n + 1) if x not in (i, j)])

    for family in itertools.product(klass.enumerate(n - 1), repeat=n):
        if any(on(family[i - 1], i, j) != on(family[j - 1], j, i)
               for i, j in itertools.combinations(range(1, n + 1), 2)):
            continue
        expected = [m for m, parts in restrictions.items() if parts == family]
        reps = []
        for m in expected:
            if not any(embedding_exists(rep, m) for rep in reps):
                reps.append(m)
        assert amalgams(list(family), klass) == (expected, reps)


def test_oracle_cases_include_failing_classes():
    ids = {case.id for case in _oracle_cases()}
    assert {"equivalence-3", "parity3-4", "graphs-4", "digraphs_loopfree.th-3"} <= ids


def test_compatible_agrees_with_restrictions():
    # slots i and j agree exactly when their restrictions to [n] minus {i, j} do
    n = 4
    members = builtin_class("digraphs").enumerate(n - 1)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        shared = [x for x in range(1, n + 1) if x not in (i, j)]
        for a, b in itertools.product(members[:16], members[-16:]):
            loc_a = _located_tuples(a, _slot_elements(n, i))
            loc_b = _located_tuples(b, _slot_elements(n, j))
            on_a = restrict(a, [x - (x > i) for x in shared])
            on_b = restrict(b, [x - (x > j) for x in shared])
            assert _compatible(loc_a, i, loc_b, j) == (on_a == on_b)


def test_ndap_validates_input():
    with pytest.raises(ValueError):
        check_ndap(GRAPHS, 0)
    with pytest.raises(CapExceededError):
        check_ndap(GRAPHS, GRAPHS.cap + 1)     # the cap is checked before locality


# --- locality -------------------------------------------------------------------------

_TRIPLES = Signature((("R", 3),))


def _symmetric(*triples):
    return [perm for triple in triples for perm in itertools.permutations(triple)]


# name -> a non-member on `locality` points whose proper restrictions are members
_TIGHT_WITNESSES = {
    "graphs": Structure(GRAPHS.signature, 2, {"E": [(1, 2)]}),
    "digraphs": Structure(GRAPHS.signature, 1, {"E": [(1, 1)]}),
    "tournaments": Structure(GRAPHS.signature, 2),
    "equivalence": Structure(GRAPHS.signature, 3, {"E": [
        (1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (2, 3), (3, 2)]}),
    "hypergraphs3": Structure(_TRIPLES, 3, {"R": [(1, 2, 3)]}),
    "parity3": Structure(_TRIPLES, 4, {"R": _symmetric((1, 2, 3))}),
}


def test_declared_localities():
    assert {name: make_builtin_class(name).locality for name in BUILTIN_CLASS_NAMES} == {
        "graphs": 2, "digraphs": 1, "tournaments": 2, "equivalence": 3,
        "hypergraphs3": 3, "parity3": 4, "subsets": 0, "trivial": 0}
    assert {name for name in BUILTIN_CLASS_NAMES
            if make_builtin_class(name).locality} == set(_TIGHT_WITNESSES)


@pytest.mark.parametrize("name", sorted(_TIGHT_WITNESSES))
def test_declared_locality_is_tight(name):
    klass = make_builtin_class(name)
    witness = _TIGHT_WITNESSES[name]
    assert witness.n == klass.locality
    assert not klass.contains(witness)
    for size in range(witness.n):
        for part in itertools.combinations(range(1, witness.n + 1), size):
            assert klass.contains(restrict(witness, part)), part


# The first n at which the exhaustive search takes well over a second (it
# only grows with n); every other class is searched up to its cap.
_SEARCH_SLOW_FROM = {"graphs": 6, "digraphs": 5, "tournaments": 6, "hypergraphs3": 6}


def _locality_cases():
    """(class factory, n) for every n with max(arity, locality) < n <= cap
    that the exhaustive search finishes in about a second."""
    cases = []
    for label, factory in _CLASS_FACTORIES:
        klass = factory()
        top = min(klass.cap, _SEARCH_SLOW_FROM.get(label, klass.cap + 1) - 1)
        cases.extend(pytest.param(factory, n, id=f"{label}-{n}")
                     for n in range(klass.forced_above + 1, top + 1))
    return cases


@pytest.mark.parametrize("factory, n", _locality_cases())
def test_locality_shortcut_agrees_with_search(factory, n):
    klass = factory()
    report = check_ndap(klass, n)
    assert (report.holds, report.method, report.witness_family) == (True, "locality", None)
    unbounded = copy.copy(klass)
    unbounded.locality = None
    searched = check_ndap(unbounded, n)
    assert (searched.holds, searched.method) == (True, "search")


def test_locality_cases_cover_every_class():
    covered = {case.id.rsplit("-", 1)[0] for case in _locality_cases()}
    assert covered == {label for label, _ in _CLASS_FACTORIES}


def test_from_theory_locality_is_the_largest_variable_count():
    theory = parse_theory("rel E/2;\nforall x . !E(x,x);\n"
                          "forall x y z . (E(x,y) & E(y,z)) -> E(x,z);\n"
                          "forall x y . E(x,y) -> E(y,x);\n")
    assert from_theory(theory).locality == 3
    expected = {"digraphs_loopfree.th": 1, "equivalence.th": 3, "graphs.th": 2,
                "hypergraphs3.th": 3, "oriented_graphs.th": 2}
    assert {path.name: from_theory(load_theory(str(path))).locality
            for path in _THEORIES} == expected


def test_class_without_locality_never_takes_the_shortcut():
    empty = Signature(())
    plain = FiniteClass("plain", empty, lambda s: True, lambda n: [Structure(empty, n)])
    assert plain.locality is None and plain.forced_above is None
    for n in range(1, plain.cap + 1):
        report = check_ndap(plain, n)
        assert (report.holds, report.method) == (True, "search")
    with pytest.raises(ValueError, match="locality"):
        FiniteClass("bad", empty, lambda s: True, lambda n: [], locality=-1)


# --- JEP ----------------------------------------------------------------------------

def test_jep_holds_for_builtin_classes():
    for name in ("graphs", "tournaments", "equivalence", "subsets"):
        report = check_jep(builtin_class(name), 2)
        assert report.holds and report.witness_pair is None


def _complete_or_empty_class():
    sig = GRAPHS.signature

    def full(n):
        return Structure(sig, n, {"E": [(i, j) for i in range(1, n + 1)
                                        for j in range(1, n + 1) if i != j]})

    def members(n):
        if n <= 1:
            return [Structure(sig, n)]
        return [Structure(sig, n), full(n)]

    def ok(s):
        return s.signature == sig and (s == Structure(sig, s.n) or s == full(s.n))

    return FiniteClass("complete-or-empty", sig, ok, members, cap=6)


def test_jep_fails_without_joint_hosts():
    report = check_jep(_complete_or_empty_class(), 2)
    assert not report.holds
    s, t = report.witness_pair
    # an edge and a non-edge cannot coexist in a complete or empty graph
    assert {s.key(), t.key()} == {_graph(2, []).key(), _graph(2, [(1, 2)]).key()}
    assert not any(embedding_exists(s, host) and embedding_exists(t, host)
                   for size in (2, 3, 4)
                   for host in _complete_or_empty_class().enumerate(size))


def _tiny_class():
    """Substructure-closed class with no members of size 2: both DAP routes fail."""
    sig = GRAPHS.signature
    return FiniteClass(
        "size-at-most-one", sig,
        lambda s: s.signature == sig and s.n <= 1 and not s.tuples("E"),
        lambda n: [Structure(sig, n)] if n <= 1 else [], cap=6)


_JEP_FACTORIES = ([factory for _, factory in _CLASS_FACTORIES]
                  + [_tiny_class, _complete_or_empty_class])
_JEP_IDS = [label for label, _ in _CLASS_FACTORIES] + ["size-at-most-one", "complete-or-empty"]


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("factory", _JEP_FACTORIES, ids=_JEP_IDS)
def test_jep_matches_host_enumeration(factory, bound):
    holds, pair = naive_jep(factory(), bound)
    report = check_jep(factory(), bound)
    assert report.holds == holds
    assert _serialized(report.witness_pair) == _serialized(pair)


def test_jep_holds_for_digraphs_at_three():
    # the joint hosts reach 6 points, where digraphs have 2^30 members
    assert check_jep(make_builtin_class("digraphs"), 3).holds


def test_overlaps_run_from_the_largest_shared_part():
    edge, path = _graph(2, [(1, 2)]), _graph(3, [(1, 2), (2, 3)])
    diagrams = list(_overlaps(edge, path))
    assert [s.n for s, *_ in diagrams] == [2] * 4 + [1] * 6 + [0]
    for s, t, tp, phi, phip in diagrams:
        assert (t, tp) == (edge, path)
        assert s == restrict(edge, phi.image_sequence())
    by_part = itertools.groupby(diagrams, key=lambda d: d[3].image_sequence())
    for part, group in by_part:
        images = [phip.image_sequence() for *_, phip in group]
        assert images == naive_embeddings(restrict(edge, part), path)


# --- DAP ------------------------------------------------------------------------------

def test_dap_holds_for_graphs_and_agrees_with_2dap():
    report = check_dap(GRAPHS, bound=2)
    assert report.holds
    assert report.ndap.holds and report.ndap.n == 2
    assert report.counterexample is None


def test_dap_holds_for_equivalences_despite_3dap_failure():
    # binary disjoint amalgamation goes through; only the 3-slot version fails
    assert check_dap(EQUIV, bound=2).holds
    assert not check_ndap(EQUIV, 3).holds


def test_dap_counterexample_when_both_routes_fail():
    report = check_dap(_tiny_class(), bound=1)
    assert not report.holds
    assert not report.ndap.holds
    assert report.counterexample is not None
    payload = report.to_json()
    assert payload["counterexample"]["s"] is not None
    assert not payload["ndap"]["holds"]


def test_dap_raises_outside_equivalence_scope():
    # complete-or-empty graphs lack joint embedding: two singletons extend to
    # the empty pair (2-point family amalgamation holds) while an edge and a
    # non-edge over a shared point have no host (overlap formulation fails)
    with pytest.raises(RuntimeError, match="joint embedding"):
        check_dap(_complete_or_empty_class(), bound=2)


def _matching_age_class():
    """Equivalence relations with classes of size at most 2: the age of the
    perfect matching, an ultrahomogeneous structure (locality 3)."""
    def small_blocks(s):
        return all(sum(s.has("E", (x, y)) for y in s.universe()) <= 2 for x in s.universe())

    return FiniteClass("matching-age", EQUIV.signature,
                       lambda s: EQUIV.contains(s) and small_blocks(s),
                       lambda n: [s for s in EQUIV.enumerate(n) if small_blocks(s)],
                       cap=6, locality=3)


def test_dap_names_the_failing_route_on_an_age_with_joint_embedding():
    # two pairs over a shared point have no disjoint amalgam, while two
    # points always do: the routes disagree on the age of one structure
    klass = _matching_age_class()
    assert check_jep(klass, 2).holds and check_jep(klass, 3).holds
    with pytest.raises(RuntimeError) as raised:
        check_dap(klass, bound=2)
    message = str(raised.value)
    assert "check_ndap at n = 2) holds but the direct overlap formulation" in message
    assert "over a base of size 1" in message
    assert "joint embedding holds up to bound 2" in message
    assert "lacks joint embedding" not in message


def _dap_verdicts(klass, bound=2):
    """(library, brute force) verdict of every overlap diagram of every
    ordered pair of members of size <= bound."""
    members = [m for size in range(bound + 1) for m in klass.enumerate(size)]
    return [(_dap_instance_holds(klass, *diagram), naive_dap_instance(klass, *diagram))
            for t, tp in itertools.product(members, repeat=2)
            for diagram in _overlaps(t, tp)]


@pytest.mark.parametrize("factory", [factory for _, factory in _CLASS_FACTORIES]
                         + [_tiny_class, _complete_or_empty_class],
                         ids=[label for label, _ in _CLASS_FACTORIES]
                         + ["size-at-most-one", "complete-or-empty"])
def test_dap_instances_match_brute_force(factory):
    verdicts = _dap_verdicts(factory())
    assert verdicts
    assert all(ours == naive for ours, naive in verdicts)


def test_dap_brute_force_cases_include_failures():
    assert not all(ours for ours, _ in _dap_verdicts(_complete_or_empty_class()))


def _search_outputs():
    """n-DAP, DAP and amalgams outputs over every builtin and theory class."""
    out = []
    for _, factory in _CLASS_FACTORIES:
        klass = factory()
        out.append([check_ndap(klass, n).to_json() for n in (1, 2, 3)])
        out.append([check_dap(klass, bound).to_json() for bound in (1, 2)])
        for n in (2, 3):
            for host in klass.enumerate(n)[:8]:
                family = [restrict(host, _slot_elements(n, i)) for i in range(1, n + 1)]
                out.append(amalgams(family, klass))
    return out


@pytest.mark.parametrize("max_free", [0, 10 ** 9])
def test_completion_routes_agree(monkeypatch, max_free):
    # the support search against the two routes it replaced: 0 scans the class
    # enumeration for every completion, 10**9 tries every assignment of the
    # free tuples
    expected = _search_outputs()

    def reference(klass, m, fixed, supports, first_only=False):
        return naive_completions(klass, m, fixed, free_tuples(klass.signature, m, supports),
                                 first_only, max_free)

    monkeypatch.setattr(amalgamation, "_completions", reference)
    assert _search_outputs() == expected


_LAYOUT_FACTORIES = _class_factories(theory_cap=6)  # JEP at bound 3 needs hosts of size 6


def _recorded_layouts(monkeypatch, klass, bound):
    """The distinct (m, fixed, supports) that check_dap and check_jep at the
    bound hand to the completion search, in the order first seen."""
    search, layouts = amalgamation._completions, {}

    def recording(klass, m, fixed, supports, first_only=False):
        layouts.setdefault((m, frozenset(fixed), tuple(supports)), None)
        return search(klass, m, fixed, supports, first_only)

    monkeypatch.setattr(amalgamation, "_completions", recording)
    check_dap(klass, bound)
    check_jep(klass, bound)
    monkeypatch.setattr(amalgamation, "_completions", search)
    return list(layouts)


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("factory", [factory for _, factory in _LAYOUT_FACTORIES],
                         ids=[label for label, _ in _LAYOUT_FACTORIES])
def test_completion_search_matches_the_product_on_dap_and_jep_layouts(
        monkeypatch, factory, bound):
    klass = factory()
    layouts = _recorded_layouts(monkeypatch, klass, bound)
    # up to 40 layouts spread over the list, and only where the product is small
    compared = 0
    for m, fixed, supports in layouts[::max(1, len(layouts) // 40)]:
        free = free_tuples(klass.signature, m, supports)
        if len(free) > 10:
            continue
        ours = amalgamation._completions(klass, m, fixed, supports)
        assert ours == naive_completions(klass, m, fixed, free)
        first = amalgamation._completions(klass, m, fixed, supports, first_only=True)
        assert bool(first) == bool(ours)
        assert all(klass.contains(s) for s in first)
        compared += 1
    assert compared
    if bound == 3 and klass.signature.max_arity() > 1:
        # several supports below [1, m], not [1, m] alone
        assert any(len(supports) > 1 for _, _, supports in layouts)


@pytest.mark.parametrize("name", ["parity3", "equivalence"])
def test_search_checks_each_larger_set_right_after_its_last_support(monkeypatch, name):
    # parity3's 4-point and equivalence's 3-point parts, above the arity
    klass = make_builtin_class(name)
    arity, bound = klass.signature.max_arity(), klass.forced_above
    calls = []

    def recording(*args):
        calls.append((args, _steps(*args)))
        return calls[-1][1]

    monkeypatch.setattr(amalgamation, "_steps", recording)
    check_dap(klass, 3)
    check_jep(klass, 3)
    assert calls
    checked_any = False
    for (m, below, *limits), steps in calls:
        assert limits == [bound, arity] and all(len(s) < m for s in below)
        order = [points for points, _ in steps]
        assert [p for p in order if p in below] == sorted(below, key=lambda s: (s[-1], len(s), s))
        checked = [p for p in order if p not in below]
        assert set(checked) == {a for size in range(arity + 1, min(bound, m - 1) + 1)
                                for a in itertools.combinations(range(1, m + 1), size)
                                if any(set(s) <= set(a) for s in below)}
        for i, points in enumerate(order):
            if points in checked:
                last = max(j for j, s in enumerate(order) if s in below and set(s) <= set(points))
                assert all(s in checked for s in order[last + 1:i])
                checked_any = True
        for points, inner in steps:
            assert set(inner) == {sub for size in range(1, min(len(points) - 1, arity) + 1)
                                  for sub in itertools.combinations(points, size)}
    assert checked_any


def test_dap_layouts_free_whole_supports(monkeypatch):
    # the free tuples of every overlap layout are exactly those that mix the
    # two private parts, and no fixed pair lies on a free support
    search, seen = amalgamation._completions, []

    def recording(klass, m, fixed, supports, first_only=False):
        seen.append((m, fixed, supports))
        return search(klass, m, fixed, supports, first_only)

    monkeypatch.setattr(amalgamation, "_completions", recording)
    for name in ("graphs", "hypergraphs3", "parity3", "equivalence"):
        klass = make_builtin_class(name)
        members = [m for size in range(3) for m in klass.enumerate(size)]
        for t, tp in itertools.product(members, repeat=2):
            for diagram in _overlaps(t, tp):
                s, _, _, phi, phip = diagram
                seen.clear()
                _dap_instance_holds(klass, *diagram)
                m, fixed, supports = seen[0]  # later calls fill amalgam tables
                tp_points = {phi(x) for x in range(1, s.n + 1)} | set(range(t.n + 1, m + 1))
                mixing = [(rel, tup) for rel, arity in klass.signature
                          for tup in itertools.product(range(1, m + 1), repeat=arity)
                          if not set(tup) <= set(range(1, t.n + 1)) and not set(tup) <= tp_points]
                assert free_tuples(klass.signature, m, supports) == mixing
                assert not set(fixed) & set(mixing)


def _membership_calls(klass, check, size):
    """The report of `check(klass, size)` and how often it asked the class
    predicate."""
    predicate, calls = klass._predicate, []

    def counting(structure):
        calls.append(1)
        return predicate(structure)

    klass._predicate = counting
    return check(klass, size), len(calls)


def test_completion_search_bounds_membership_calls():
    # the 2^free product asked 53,810 and 604,157 times on parity3 at bound 3
    for check, klass, most in ((check_jep, "parity3", 2_000), (check_dap, "parity3", 2_000),
                               (check_dap, "digraphs", 33_070)):
        report, calls = _membership_calls(make_builtin_class(klass), check, 3)
        assert report.holds and calls <= most


@pytest.mark.parametrize("factory", [factory for _, factory in _CLASS_FACTORIES],
                         ids=[label for label, _ in _CLASS_FACTORIES])
def test_ndap_search_asks_the_predicate_as_often_as_the_product(monkeypatch, factory):
    # n-DAP frees [1, n] alone: its candidates are the product's, in its order
    def product(klass, m, fixed, supports, first_only=False):
        return naive_completions(klass, m, fixed, free_tuples(klass.signature, m, supports),
                                 first_only, 10 ** 9)

    top = min(factory().forced_above, 4)
    ours = [_membership_calls(factory(), check_ndap, n) for n in range(1, top + 1)]
    monkeypatch.setattr(amalgamation, "_completions", product)
    assert ours == [_membership_calls(factory(), check_ndap, n) for n in range(1, top + 1)]


def test_dap_of_3_hypergraphs_holds_at_bound_3():
    # a scan of the class enumeration at size 6 raised CapExceededError here
    assert check_dap(builtin_class("hypergraphs3"), 3).holds


def test_dap_at_bound_4():
    assert check_dap(make_builtin_class("subsets", cap=8), 4).holds
