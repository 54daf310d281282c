"""Every serve answer is checked against its planned class and digest."""

import json

from perfbench.serve_mix import Planned, check
from perfbench.stats import Ops


def _answered(cls, cache, status=200, answer=None, planned_cache="miss",
              triage=None):
    planned = Planned(cls, "/v1/identify", b"{}", "R", planned_cache, triage)
    planned.status = status
    body = {"result_digest": "R", "cache": cache}
    body.update(answer or {})
    planned.answer = json.dumps(body).encode()
    return planned


def test_planned_miss_answering_hit_is_a_wrong_op():
    ops = Ops()
    assert not check(_answered("miss", "hit"), ops)
    assert (ops.failed, ops.wrong) == (1, 1)
    assert ops.reasons == {"miss_answered_hit": 1}


def test_planned_class_answered_as_planned_is_good():
    ops = Ops()
    assert check(_answered("miss", "miss"), ops)
    assert check(_answered("byte_hit", "hit", planned_cache="hit"), ops)
    assert (ops.attempted, ops.failed) == (2, 0)


def test_wrong_digest_fails_even_in_the_planned_class():
    ops = Ops()
    planned = _answered("byte_hit", "hit", planned_cache="hit",
                        answer={"result_digest": "other"})
    assert not check(planned, ops)
    assert ops.reasons == {"byte_hit_wrong_output": 1}


def test_triage_checks_its_triage_digest_not_a_cache_field():
    ops = Ops()
    good = _answered("triage", None, planned_cache=None, triage="T",
                     answer={"triage_digest": "T"})
    bad = _answered("triage", None, planned_cache=None, triage="T",
                    answer={"triage_digest": "U"})
    assert check(good, ops)
    assert not check(bad, ops)
    assert (ops.attempted, ops.failed, ops.wrong) == (2, 1, 1)


def test_refused_and_transport_failures_count_but_are_not_wrong():
    ops = Ops()
    assert not check(_answered("miss", "miss", status=429), ops)
    lost = _answered("miss", "miss")
    lost.error = "ConnectionResetError: reset"
    assert not check(lost, ops)
    assert ops.failed_share == 1.0
    assert ops.wrong == 0
    assert ops.reasons == {"http_429": 1, "transport": 1}
