"""Unit tests for the indexed triple store."""

import pytest

from repro.rdf import Graph, Literal, Triple, URI
from repro.rdf.terms import Variable


def u(name):
    return URI(f"ex:{name}")


@pytest.fixture
def small() -> Graph:
    g = Graph()
    g.add_spo(u("a"), u("p"), u("b"))
    g.add_spo(u("a"), u("p"), u("c"))
    g.add_spo(u("b"), u("q"), u("c"))
    g.add_spo(u("c"), u("p"), Literal("leaf"))
    return g


class TestMutation:
    def test_add_returns_true_once(self):
        g = Graph()
        triple = Triple(u("a"), u("p"), u("b"))
        assert g.add(triple) is True
        assert g.add(triple) is False
        assert len(g) == 1

    def test_add_requires_triple(self):
        with pytest.raises(TypeError):
            Graph().add(("s", "p", "o"))

    def test_update_counts_new_only(self, small):
        added = small.update([Triple(u("a"), u("p"), u("b")),
                              Triple(u("x"), u("p"), u("y"))])
        assert added == 1

    def test_discard_present(self, small):
        assert small.discard(Triple(u("a"), u("p"), u("b"))) is True
        assert len(small) == 3
        small.check_integrity()

    def test_discard_absent(self, small):
        assert small.discard(Triple(u("zz"), u("p"), u("b"))) is False

    def test_discard_then_match_empty(self):
        g = Graph()
        triple = Triple(u("a"), u("p"), u("b"))
        g.add(triple)
        g.discard(triple)
        assert list(g.match(u("a"), None, None)) == []
        assert len(g) == 0
        g.check_integrity()

    def test_clear(self, small):
        small.clear()
        assert len(small) == 0
        assert list(small) == []


class TestMatch:
    @pytest.mark.parametrize(
        "pattern,count",
        [
            ((None, None, None), 4),
            (("a", None, None), 2),
            ((None, "p", None), 3),
            ((None, None, "c"), 2),
            (("a", "p", None), 2),
            (("a", None, "b"), 1),
            ((None, "p", "b"), 1),
            (("a", "p", "b"), 1),
            (("zz", None, None), 0),
            ((None, "zz", None), 0),
            ((None, None, "zz"), 0),
            (("a", "q", None), 0),
            (("a", None, "zz"), 0),
            ((None, "q", "zz"), 0),
            (("a", "zz", "b"), 0),
        ],
    )
    def test_all_pattern_shapes(self, small, pattern, count):
        s, p, o = (u(x) if x else None for x in pattern)
        results = list(small.match(s, p, o))
        assert len(results) == count
        for t in results:
            assert (s is None or t.s == s)
            assert (p is None or t.p == p)
            assert (o is None or t.o == o)

    def test_variables_treated_as_wildcards(self, small):
        assert len(list(small.match(Variable("x"), u("p"), Variable("y")))) == 3

    def test_literal_object_match(self, small):
        assert len(list(small.match(None, None, Literal("leaf")))) == 1

    def test_contains(self, small):
        assert Triple(u("a"), u("p"), u("b")) in small
        assert Triple(u("a"), u("p"), u("zz")) not in small


class TestAccessors:
    def test_subjects_unique(self, small):
        assert sorted(str(s) for s in small.subjects(p=u("p"))) == [
            "ex:a", "ex:c"]

    def test_objects(self, small):
        assert set(small.objects(s=u("a"))) == {u("b"), u("c")}

    def test_predicates(self, small):
        assert set(small.predicates()) == {u("p"), u("q")}

    def test_value_unique(self, small):
        assert small.value(u("b"), u("q")) == u("c")

    def test_value_default(self, small):
        assert small.value(u("b"), u("zz"), default=u("d")) == u("d")

    def test_value_multiple_raises(self, small):
        with pytest.raises(ValueError):
            small.value(u("a"), u("p"))

    def test_count(self, small):
        assert small.count() == 4
        assert small.count(p=u("p")) == 3

    def test_resources_excludes_literals(self, small):
        resources = small.resources()
        assert u("a") in resources and u("c") in resources
        assert Literal("leaf") not in resources

    def test_degree(self, small):
        assert small.degree(u("c")) == 3  # object twice, subject once
        assert small.degree(u("zz")) == 0


class TestSetOperations:
    def test_copy_independent(self, small):
        copy = small.copy()
        copy.add_spo(u("new"), u("p"), u("x"))
        assert len(copy) == len(small) + 1

    def test_union(self, small):
        other = Graph([Triple(u("z"), u("p"), u("w"))])
        assert len(small.union(other)) == 5

    def test_difference(self, small):
        other = Graph([Triple(u("a"), u("p"), u("b"))])
        assert len(small.difference(other)) == 3

    def test_equality_order_independent(self):
        t1 = Triple(u("a"), u("p"), u("b"))
        t2 = Triple(u("c"), u("p"), u("d"))
        assert Graph([t1, t2]) == Graph([t2, t1])

    def test_inequality(self, small):
        assert small != Graph()

    def test_unhashable(self, small):
        with pytest.raises(TypeError):
            hash(small)


class TestRawAccessors:
    """The raw-term fast paths, and the index levels behind each
    one-position-free ``match`` shape."""

    def test_spo_items_matches_iteration(self, small):
        assert set(small.spo_items()) == {(t.s, t.p, t.o) for t in small}

    def test_contains_spo(self, small):
        assert small.contains_spo(u("a"), u("p"), u("b"))
        assert not small.contains_spo(u("a"), u("p"), u("z"))
        assert not small.contains_spo(u("z"), u("p"), u("b"))

    def test_objects_set(self, small):
        assert _free(small, u("a"), u("p"), None) == {u("b"), u("c")}
        assert _free(small, u("a"), u("q"), None) == set()
        assert _free(small, u("z"), u("p"), None) == set()

    def test_subjects_set(self, small):
        assert _free(small, None, u("q"), u("c")) == {u("b")}
        assert _free(small, None, u("q"), u("z")) == set()

    def test_predicates_set(self, small):
        assert _free(small, u("b"), None, u("c")) == {u("q")}
        assert _free(small, u("a"), None, u("z")) == set()

    def test_maps(self, small):
        assert {t.p for t in small.match(u("a"), None, None)} == {u("p")}
        assert not list(small.match(u("zzz"), None, None))
        assert ({t.o for t in small.match(None, u("p"), None)}
                == {u("b"), u("c"), Literal("leaf")})
        assert not list(small.match(None, u("zzz"), None))
        assert ({t.s for t in small.match(None, None, u("c"))}
                == {u("a"), u("b")})
        assert not list(small.match(None, None, u("zzz")))

    def test_accessors_track_discard(self, small):
        small.discard(Triple(u("a"), u("p"), u("b")))
        assert _free(small, u("a"), u("p"), None) == {u("c")}
        assert not small.contains_spo(u("a"), u("p"), u("b"))
        small.discard(Triple(u("a"), u("p"), u("c")))
        # Emptied index levels are pruned.
        assert _free(small, u("a"), u("p"), None) == set()
        assert not list(small.match(u("a"), None, None))
        small.check_integrity()


def _free(graph, s, p, o):
    """The values at the one unbound position of an ``(s, p, o)`` match."""
    pos = (s, p, o).index(None)
    return {tuple(t)[pos] for t in graph.match(s, p, o)}


def test_integrity_checker_catches_corruption(small):
    # Reach into an index and corrupt it deliberately.
    small._spo[u("a")][u("p")].add(u("phantom"))
    with pytest.raises(AssertionError):
        small.check_integrity()
