from fractions import Fraction as Fr

from wakimoto.sparse import add_into, add_term, added, scaled


def test_results_cancel_to_empty():
    a = {"x": Fr(1, 2), "y": 3}
    assert added(a, a, -1) == {}
    out = dict(a)
    add_into(out, {"x": Fr(1, 4)}, -2)
    assert out == {"y": 3}
    add_term(out, "y", -3)
    assert out == {}


def test_zero_and_negative_scale():
    out = {"x": Fr(1, 3)}
    add_into(out, {"x": 5, "z": Fr(2, 7)}, 0)
    assert out == {"x": Fr(1, 3)}
    add_into(out, {"x": Fr(1, 3), "z": 1}, Fr(-1, 2))
    assert out == {"x": Fr(1, 6), "z": Fr(-1, 2)}
    assert scaled({"x": 2}, 0) == {}
    assert scaled({"x": 2, "y": Fr(1, 2)}, -3) == {"x": -6, "y": Fr(-3, 2)}


def test_src_is_never_mutated():
    src = {"x": Fr(1, 2), "y": -1}
    keep = dict(src)
    for scale in (1, -1, 0, Fr(2, 3)):
        out = {"x": Fr(-1, 2), "w": 4}
        add_into(out, src, scale)
        added(src, src, scale)
        scaled(src, scale)
        assert src == keep


def test_coefficient_types_are_kept():
    out = added({"x": Fr(1, 2)}, {"x": Fr(1, 2), "y": Fr(3)})
    assert all(type(c) is Fr for c in out.values())
    assert all(type(c) is Fr for c in scaled(out, 2).values())
    ints = added({"x": 1}, {"x": 2, "y": 3}, 2)
    assert ints == {"x": 5, "y": 6}
    assert all(type(c) is int for c in ints.values())

