import random
from fractions import Fraction

import pytest

from phstab.complexes import (
    FiltrationFunction,
    NonFiniteValue,
    NonMonotone,
    Simplex,
    SizeMismatch,
    find_duplicate_value,
    validate_complex,
    validate_filtration,
)
from phstab.errors import DomainMismatch, InvalidComplex, InvalidFiltration
from phstab.generate import GeneratorConfig, generate_complex, random_filtration

from oracles import sublevel

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


def test_facets_of_triangle():
    s = Simplex((0, 1, 2))
    assert set(f.vertices for f in s.facets()) == {(1, 2), (0, 2), (0, 1)}
    assert Simplex((5,)).facets() == ()


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
    msgs = [str(i) for i in ei.value.issues]
    assert len(msgs) == 4
    assert any("duplicate" in m for m in msgs)
    assert sum("missing face" in m for m in msgs) == 3


def test_validate_complex_rejects_malformed_entries():
    with pytest.raises(InvalidComplex) as ei:
        validate_complex([(0,), (0, 0), "nope"])
    assert any("malformed" in str(i) for i in ei.value.issues)


def test_facet_positions():
    K = validate_complex(TRIANGLE)
    tri = K.index[(0, 1, 2)]
    assert sorted(K.facet_positions[tri]) == [3, 4, 5]
    assert K.facet_positions[0] == ()


def test_filtration_function_coerces_exactly():
    K = validate_complex([(0,), (1,), (0, 1)])
    f = FiltrationFunction(K, ("0.1", 1, Fraction(3, 2)))
    assert f.values == (Fraction(1, 10), Fraction(1), Fraction(3, 2))
    assert len(f.values) == 3


def test_filtration_function_size_mismatch():
    K = validate_complex([(0,), (1,)])
    with pytest.raises(InvalidFiltration) as ei:
        FiltrationFunction(K, (0,))
    assert ei.value.issues == (SizeMismatch(2, 1),)
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
        assert ei.value.issues == (NonFiniteValue(Simplex((1,)), bad),)
        assert str(ei.value).startswith(f"simplex {{1}} has value {bad!r}")
    with pytest.raises(InvalidFiltration) as ei:
        FiltrationFunction(K, [float("nan"), "1/0"])
    assert [issue.simplex for issue in ei.value.issues] == list(K.simplices)


def test_validate_filtration_reports_every_violation():
    K = validate_complex(TRIANGLE)
    # triangle value below two of its edges
    f = FiltrationFunction(K, [0, 0, 0, 5, 5, 1, 2])
    issues = validate_filtration(K, f)
    assert [(str(i.face), str(i.coface)) for i in issues] == [
        ("0,2", "0,1,2"),
        ("0,1", "0,1,2"),
    ]
    assert all(isinstance(i, NonMonotone) for i in issues)


def test_validate_filtration_accepts_monotone():
    K = validate_complex(TRIANGLE)
    f = FiltrationFunction(K, (0, 0, 0, 1, 1, 1, 2))
    assert validate_filtration(K, f) == ()


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


def test_generated_unique_values_are_short_decimals():
    """Uniqueness offsets are dyadic so files stay exactly representable."""
    from phstab.rational import is_terminating

    rng = random.Random(11)
    K = generate_complex(rng, GeneratorConfig(seed=11, num_vertices=6))
    f = random_filtration(K, rng)
    assert all(is_terminating(v) for v in f.values)
