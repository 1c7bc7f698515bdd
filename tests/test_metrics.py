"""Tests for the accounting layer (MessageStats / StageStats)."""

import pytest

from repro.congest.metrics import MessageStats, StageStats


def test_charges_accumulate():
    stats = MessageStats()
    stats.begin_stage("a")
    stats.charge_send_batch(sends=1, words=3, messages=2)
    stats.charge_send_batch(sends=1, words=1, messages=1)
    stats.charge_rounds(5)
    assert stats.sends == 2
    assert stats.messages == 3
    assert stats.words == 4
    assert stats.rounds == 5


def test_stage_isolation():
    stats = MessageStats()
    stats.begin_stage("first")
    stats.charge_send_batch(1, 1, 1)
    stats.begin_stage("second")
    stats.charge_send_batch(1, 2, 1)
    stats.charge_send_batch(1, 2, 1)
    assert stats.stage_named("first").sends == 1
    assert stats.stage_named("second").sends == 2
    assert stats.sends == 3


def test_stage_named_missing():
    stats = MessageStats()
    with pytest.raises(KeyError):
        stats.stage_named("nope")


def test_utilized_canonicalized():
    """The engine adds an edge {u, v} as the flat key u * n + v with
    u < v; the view decodes each key once."""
    stats = MessageStats(6)
    stats._utilized.add(2 * stats.utilized_stride + 5)
    stats._utilized.add(2 * stats.utilized_stride + 5)
    assert stats.utilized == {(2, 5)}
    assert stats.utilized_count == 1


def test_charge_round_single():
    stats = MessageStats()
    stats.begin_stage("s")
    stats.charge_rounds(1)
    assert stats.rounds == 1
    assert stats.stage_named("s").rounds == 1


def test_summary_structure():
    stats = MessageStats(2)
    stats.begin_stage("x")
    stats.charge_send_batch(1, 2, 1)
    stats._utilized.add(1)      # the edge {0, 1}: key 0 * 2 + 1
    summary = stats.summary()
    assert summary["messages"] == 1
    assert summary["utilized_edges"] == 1
    assert summary["stages"][0]["name"] == "x"


def test_stage_stats_as_dict():
    s = StageStats(name="y", sends=1, messages=2, words=3, rounds=4)
    d = s.as_dict()
    assert d == {"name": "y", "sends": 1, "messages": 2, "words": 3,
                 "rounds": 4}


def test_repr_contains_counts():
    stats = MessageStats()
    stats.begin_stage("z")
    stats.charge_send_batch(1, 1, 7)
    assert "7" in repr(stats)


def test_charges_without_stage():
    """Charging before any stage began must not crash (engine setup)."""
    stats = MessageStats()
    stats.charge_send_batch(1, 1, 1)
    stats.charge_rounds(2)
    assert stats.messages == 1
    assert stats.rounds == 2
