import copy
import pickle
import random
from fractions import Fraction

import pytest

from phstab import generate
from phstab.bottleneck import bottleneck_bijection
from phstab.complexes import (
    FiltrationFunction,
    Issue,
    Simplex,
    SimplicialComplex,
    facets,
    find_duplicate_value,
    validate_complex,
    validate_filtration,
)
from phstab.errors import (
    ComplexTooLarge,
    DomainMismatch,
    InvalidComplex,
    InvalidFiltration,
    PhstabError,
)
from phstab.generate import GeneratorConfig, generate_complex, random_filtration
from phstab.instances import parse_instance_text
from phstab.interpolation import crossing_times
from phstab.persistence import diagram

from oracles import (
    combination_generate_complex,
    fraction_random_filtration,
    sublevel,
)

TRIANGLE = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_simplex_canonicalizes_vertex_order():
    s = Simplex((2, 0, 1))
    assert s.vertices == (0, 1, 2)
    assert s.dim == 2
    assert str(s) == "0,1,2"


def test_simplex_rejects_bad_vertices():
    with pytest.raises(ValueError):
        Simplex(())
    with pytest.raises(ValueError):
        Simplex((0, 0))
    with pytest.raises(ValueError):
        Simplex((-1,))
    with pytest.raises(ValueError):
        Simplex((True,))
    with pytest.raises(ValueError):
        Simplex(("a",))


def test_simplex_equality_order_hash_and_repr():
    a, b = Simplex((1, 0)), Simplex(vertices=[0, 1])
    assert a == b and hash(a) == hash(b) == hash(((0, 1),))
    assert a != (0, 1)
    assert repr(a) == "Simplex(vertices=(0, 1))"
    assert sorted([Simplex((1,)), Simplex((0, 1)), Simplex((0,))]) == [
        Simplex((0,)), Simplex((0, 1)), Simplex((1,)),
    ]
    with pytest.raises(AttributeError):  # frozen
        a.vertices = (2,)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == copy.deepcopy(a) == a


def test_facets_of_triangle():
    s = Simplex((0, 1, 2))
    assert facets(s.vertices) == ((1, 2), (0, 2), (0, 1))  # the i-th drops vertex i
    assert facets((5,)) == ()


def test_validate_complex_accepts_and_preserves_order():
    K = validate_complex(TRIANGLE)
    assert [s.vertices for s in K.simplices] == [tuple(t) for t in TRIANGLE]
    assert K.dim == 2
    assert len(K) == 7
    assert K.index[(0, 1)] == 3
    assert (1, 2) in K.index
    assert (3,) not in K.index
    assert Simplex((2, 0)).vertices in K.index


def test_validate_complex_collects_every_issue():
    # two missing faces and one duplicate, all reported at once
    with pytest.raises(InvalidComplex) as ei:
        validate_complex([(0,), (0, 1), (1, 2), (0,)])
    assert ei.value.issues == (
        Issue("duplicate simplex {0}", 3),
        Issue("simplex {0,1} is missing face {1}", 1),
        Issue("simplex {1,2} is missing face {2}", 2),
        Issue("simplex {1,2} is missing face {1}", 2),
    )


def test_validate_complex_rejects_malformed_entries():
    # later issues still name input positions, malformed entries counted
    with pytest.raises(InvalidComplex) as ei:
        validate_complex([(0,), (0, 0), "nope", (0, 1), (0,)])
    assert ei.value.issues == (
        Issue("malformed simplex (0, 0): duplicate vertex in (0, 0)", 1),
        Issue("malformed simplex 'nope': vertex id 'n' is not an integer", 2),
        Issue("duplicate simplex {0}", 4),
        Issue("simplex {0,1} is missing face {1}", 3),
    )


EDGE = validate_complex([(0,), (1,), (0, 1)])
POINT = validate_complex([(0,)])


def _on_edge(*values):
    return FiltrationFunction(EDGE, values)


def _message(run):
    """What ``run`` reports: its error's message, or the issues it returns
    joined as an error joins them."""
    try:
        return "; ".join(str(issue) for issue in run())
    except PhstabError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(
            lambda: validate_complex([(0,), (0, 0), "ab"]),
            "malformed simplex (0, 0): duplicate vertex in (0, 0); "
            "malformed simplex 'ab': vertex id 'a' is not an integer",
            id="malformed",
        ),
        pytest.param(
            lambda: validate_complex([(0,), (1,), (0,), (1, 0), (0, 1)]),
            "duplicate simplex {0}; duplicate simplex {0,1}",
            id="duplicate",
        ),
        pytest.param(
            lambda: validate_complex([(0,), (0, 1), (2, 1, 0)]),
            "simplex {0,1} is missing face {1}; "
            "simplex {0,1,2} is missing face {1,2}; "
            "simplex {0,1,2} is missing face {0,2}",
            id="missing-face",
        ),
        pytest.param(
            lambda: validate_filtration(EDGE, _on_edge(0, "7/2", "1.5")),
            "face {1} has value 7/2 > 3/2 on coface {0,1}",
            id="non-monotone",
        ),
        pytest.param(
            lambda: _on_edge(float("nan"), 1, "1/0"),
            "simplex {0} has value nan, which is not a finite rational; "
            "simplex {0,1} has value '1/0', which is not a finite rational",
            id="non-finite",
        ),
        pytest.param(
            lambda: FiltrationFunction(EDGE, iter),
            f"values {iter!r} are not a sequence",
            id="not-a-sequence",
        ),
        pytest.param(
            lambda: _on_edge(0, 1),
            "expected 3 values, got 2",
            id="size-mismatch",
        ),
        pytest.param(
            lambda: bottleneck_bijection(
                diagram(EDGE, _on_edge(0, 1, 2)),
                diagram(POINT, FiltrationFunction(POINT, (0,))),
            ),
            "dimension 0: 2 points vs 1 points",
            id="count-mismatch",
        ),
        pytest.param(
            lambda: crossing_times(_on_edge(0, 1, 2), _on_edge(5, 3, "5.0")),
            "f1: simplices 0 and 0,1 share value 5",
            id="non-unique-values",
        ),
    ],
)
def test_every_validation_message_in_full(run, message):
    assert _message(run) == message


def test_facet_positions():
    K = validate_complex(TRIANGLE)
    tri = K.index[(0, 1, 2)]
    assert sorted(K.facet_positions[tri]) == [3, 4, 5]
    assert K.facet_positions[0] == ()
    # On any accepted complex, in any input order, each entry names the
    # positions of the simplex's faces, in the order of facets.
    rng = random.Random(5)
    for seed in range(30):
        cfg = GeneratorConfig(seed=seed, num_vertices=6, fill_prob=0.6)
        K = validate_complex(generate_complex(rng, cfg).simplices[::-1])
        listed = [s.vertices for s in K.simplices]
        assert K.facet_positions == tuple(
            tuple(listed.index(f) for f in facets(v)) for v in listed
        )
    # A complex built without validation may lack a face: None marks it.
    open_edge = SimplicialComplex(((0,), (0, 1)))
    assert open_edge.facet_positions == ((), (None, 0))


def test_filtration_function_coerces_exactly():
    """The constructor puts the values over the lcm of their denominators
    once, as ints; that function equals the one the parser builds from the
    same values, and ``values`` reads back the Fractions given."""
    K = validate_complex([(0,), (1,), (0, 1)])
    f = FiltrationFunction(K, ("0.1", 1, Fraction(3, 2)))
    assert f.values == (Fraction(1, 10), Fraction(1), Fraction(3, 2))
    assert (f.scale, f.numerators) == (10, (1, 10, 15))
    K = validate_complex([(0,), (1,), (2,), (0, 1)])
    f = FiltrationFunction(K, ("1/3", "0.25", 2, Fraction(5, 6)))
    assert (f.scale, f.numerators) == (12, (4, 3, 24, 10))
    text = "0 : 1/3\n1 : 0.25\n2 : 2\n0 1 : 5/6\n"
    assert f == parse_instance_text(text).functions[0]
    assert f.values == (Fraction(1, 3), Fraction(1, 4), Fraction(2), Fraction(5, 6))


def test_filtration_function_size_mismatch():
    K = validate_complex([(0,), (1,)])
    with pytest.raises(InvalidFiltration) as ei:
        FiltrationFunction(K, (0,))
    assert ei.value.issues == (Issue("expected 2 values, got 1", None),)
    assert str(ei.value) == "expected 2 values, got 1"


# text is not read one value per character, even when the length fits
@pytest.mark.parametrize("values", [None, 5, "01", b"01"])
def test_filtration_function_rejects_values_that_are_not_a_sequence(values):
    K = validate_complex([(0,), (1,)])
    with pytest.raises(InvalidFiltration) as ei:
        FiltrationFunction(K, values)
    assert str(ei.value) == f"values {values!r} are not a sequence"


def test_filtration_function_rejects_unreadable_values():
    """The constructor is the one place values are coerced: every value
    that is not a finite rational is an InvalidFiltration naming its
    simplex, never a bare ValueError or TypeError."""
    K = validate_complex([(0,), (1,)])
    for bad in (float("inf"), "abc", True, None):
        with pytest.raises(InvalidFiltration) as ei:
            FiltrationFunction(K, [0, bad])
        message = f"simplex {{1}} has value {bad!r}, which is not a finite rational"
        assert ei.value.issues == (Issue(message, 1),)
    # several bad values: one error naming each, in position order
    K = validate_complex([(v,) for v in range(7)])
    with pytest.raises(InvalidFiltration) as ei:
        FiltrationFunction(K, ("x", 1, float("nan"), True, "1e100001", None, "1/0"))
    assert ei.value.issues == (
        Issue("simplex {0} has value 'x', which is not a finite rational", 0),
        Issue("simplex {2} has value nan, which is not a finite rational", 2),
        Issue("simplex {3} has value True, which is not a finite rational", 3),
        Issue(
            "simplex {4} has value '1e100001', which is not a finite rational", 4
        ),
        Issue("simplex {5} has value None, which is not a finite rational", 5),
        Issue("simplex {6} has value '1/0', which is not a finite rational", 6),
    )
    assert str(ei.value) == "; ".join(issue.message for issue in ei.value.issues)


def test_validate_filtration_reports_every_violation():
    K = validate_complex(TRIANGLE)
    # triangle value below two of its edges
    f = FiltrationFunction(K, [0, 0, 0, 5, 5, 1, 2])
    assert validate_filtration(K, f) == (
        Issue("face {0,2} has value 5 > 2 on coface {0,1,2}", 6),
        Issue("face {0,1} has value 5 > 2 on coface {0,1,2}", 6),
    )


def test_validate_filtration_accepts_monotone():
    K = validate_complex(TRIANGLE)
    f = FiltrationFunction(K, (0, 0, 0, 1, 1, 1, 2))
    assert validate_filtration(K, f) == ()


def test_validate_filtration_sees_the_smallest_decrease_over_mixed_denominators():
    # over the common denominator 6 the face is one unit above its coface
    K = validate_complex([(0,), (1,), (0, 1)])
    f = FiltrationFunction(K, ["1/2", "-1/3", "1/3"])
    assert validate_filtration(K, f) == (
        Issue("face {0} has value 1/2 > 1/3 on coface {0,1}", 2),
    )
    assert validate_filtration(K, FiltrationFunction(K, ["1/3", "-1/2", "2/6"])) == ()


def test_validate_filtration_wrong_complex():
    K1 = validate_complex([(0,)])
    K2 = validate_complex([(1,)])
    f = FiltrationFunction(K1, (0,))
    with pytest.raises(DomainMismatch):
        validate_filtration(K2, f)


def test_sublevel_sets_are_nested_complexes():
    K = validate_complex(TRIANGLE)
    f = FiltrationFunction(K, (0, 0, 0, 1, 1, 1, 2))
    assert len(sublevel(K, f, Fraction(-1))) == 0
    assert len(sublevel(K, f, 0)) == 3
    assert len(sublevel(K, f, 1)) == 6
    assert len(sublevel(K, f, 2)) == 7
    # each sublevel set is itself a valid complex
    for alpha in (0, 1, 2):
        validate_complex(sublevel(K, f, alpha).simplices)


def test_unique_values_helpers():
    K = validate_complex([(0,), (1,), (0, 1)])
    f = FiltrationFunction(K, (0, 1, 2))
    g = FiltrationFunction(K, (0, 1, 1))
    assert find_duplicate_value(f) is None
    assert find_duplicate_value(g) == (1, 2)


def test_random_monotone_filtrations_validate():
    rng = random.Random(4)
    for seed in range(25):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        for unique in (True, False):
            f = random_filtration(K, rng, unique=unique)
            assert validate_filtration(K, f) == ()
            if unique:
                assert find_duplicate_value(f) is None


def test_integer_generator_equals_the_fraction_twin():
    """Same draws in the same order, the same values: working on int
    numerators changes neither, with or without uniqueness offsets, and
    on complexes listed in any order."""
    complexes = [validate_complex([])]
    for seed in range(30):
        cfg = GeneratorConfig(
            seed=seed,
            num_vertices=1 + seed % 8,
            max_dimension=seed % 4,
            fill_prob=(0.3, 0.6, 0.9)[seed % 3],
        )
        K = generate_complex(random.Random(seed), cfg)
        # listed cofaces first too, so list order is not dimension order
        complexes += [K, validate_complex(K.simplices[::-1])]
    for k, K in enumerate(complexes):
        for unique in (True, False):
            for value_range in (1, 4, 9):
                rng = random.Random(f"{k}:{unique}:{value_range}")
                start = rng.getstate()
                f = random_filtration(K, rng, value_range, unique)
                after = rng.getstate()
                rng.setstate(start)
                twin = fraction_random_filtration(K, rng, value_range, unique)
                assert f.values == twin.values
                assert rng.getstate() == after


def test_clique_extension_equals_the_combination_twin():
    """The same complex, in the same order, and the same RNG state after
    it, as testing every vertex set; edges are kept at dimension 0 too."""
    for vertices in range(1, 13):
        for max_dimension in range(5):
            for fill_prob in (0, 0.3, 0.6, 0.9, 1):
                for seed in range(2):
                    cfg = GeneratorConfig(
                        seed=seed,
                        num_vertices=vertices,
                        max_dimension=max_dimension,
                        fill_prob=fill_prob,
                    )
                    rng = random.Random(f"{seed}:{vertices}")
                    start = rng.getstate()
                    K = generate_complex(rng, cfg)
                    after = rng.getstate()
                    rng.setstate(start)
                    assert K == combination_generate_complex(rng, cfg)
                    assert rng.getstate() == after


def test_generator_stops_once_the_count_passes_its_limit(monkeypatch):
    # 10 vertices, every edge, dimension 2: 10 + 45 + 120 = 175 simplices
    cfg = GeneratorConfig(seed=0, num_vertices=10, max_dimension=2, fill_prob=1)
    monkeypatch.setattr(generate, "MAX_SIMPLICES", 175)
    assert len(generate_complex(random.Random(0), cfg)) == 175
    for limit in (174, 55, 54, 9):  # in the triangles, edges and vertices
        monkeypatch.setattr(generate, "MAX_SIMPLICES", limit)
        with pytest.raises(ComplexTooLarge, match=f"more than {limit} simplices"):
            generate_complex(random.Random(0), cfg)


def test_generated_unique_values_are_short_decimals():
    """Uniqueness offsets are dyadic so files stay exactly representable."""
    from phstab.rational import format_value

    rng = random.Random(11)
    K = generate_complex(rng, GeneratorConfig(seed=11, num_vertices=6))
    f = random_filtration(K, rng)
    assert all("/" not in format_value(v) for v in f.values)
