"""Unit tests for call-site signatures."""

import pytest

from repro.util.callsite import CallSite


def test_basic_construction():
    cs = CallSite([("f", 3), ("g", 7)])
    assert cs.frames == (("f", 3), ("g", 7))
    assert cs.innermost == ("f", 3)


def test_truncates_to_depth():
    cs = CallSite([("a", 1), ("b", 2), ("c", 3), ("d", 4)])
    assert len(cs.frames) == CallSite.DEPTH == 3
    assert cs.frames == (("a", 1), ("b", 2), ("c", 3))


def test_equality_and_hash():
    a = CallSite([("f", 3), ("g", 7)])
    b = CallSite([("f", 3), ("g", 7)])
    c = CallSite([("f", 3), ("g", 8)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_hash_is_cached_and_survives_pickling():
    import pickle

    fresh = CallSite([("f", 3), ("g", 7)])
    interned = CallSite.intern([("f", 3), ("g", 7)])
    assert hash(fresh) == hash(interned) == hash(fresh.frames)
    clone = pickle.loads(pickle.dumps(fresh))
    assert clone is interned
    assert hash(clone) == hash(fresh.frames)


def test_usable_as_dict_key():
    table = {CallSite([("f", 1)]): "patch"}
    assert table[CallSite([("f", 1)])] == "patch"


def test_empty_frames_rejected():
    with pytest.raises(ValueError):
        CallSite([])


def test_malformed_frames_rejected():
    with pytest.raises(ValueError):
        CallSite([("f",)])
    with pytest.raises(ValueError):
        CallSite([(3, "f")])


def test_immutable():
    cs = CallSite([("f", 1)])
    with pytest.raises(AttributeError):
        cs.frames = (("g", 2),)


def test_json_roundtrip():
    cs = CallSite([("alloc", 12), ("handler", 4), ("main", 9)])
    assert CallSite.from_json(cs.to_json()) == cs


def test_render_contains_function_names():
    cs = CallSite([("util_ald_free", 0), ("purge", 5)])
    text = cs.render()
    assert "util_ald_free" in text
    assert "purge" in text


def test_different_callers_different_sites():
    # the property the whole patch mechanism relies on
    inner = ("wrapper", 2)
    a = CallSite([inner, ("caller_a", 10)])
    b = CallSite([inner, ("caller_b", 10)])
    assert a != b
