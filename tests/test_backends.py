import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import requests

import echosim
from echosim.backends import (
    MOCK_DIGEST_ITEMS,
    BackendSettings,
    MockBackend,
    RemoteChatBackend,
    mock_backend_rule,
    mock_summary_rule,
)
from echosim.errors import BackendError, ParameterError
from echosim.language import compress_long_term
from echosim.population import Persona
from echosim.prompts import (
    OpinionOutput,
    build_reflection_prompt,
    build_summary_prompt,
    parse_opinion_output,
)

PERSONA = Persona(index=0, gender="male", age=33, education="bachelor",
                  traits=(True,) * 5)
TOPIC = "Euthanasia should be legal."


def reflection_prompt(own, heard=(), nudge=None):
    items = [(j, f"(stance {b:+d}) text {j}") for j, b in enumerate(heard)]
    current = OpinionOutput(opinion_text="current view", belief=own)
    return build_reflection_prompt(PERSONA, TOPIC, "", items, current, nudge)


class TestMockRule:
    def test_fixed_point_at_shared_extreme(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(2, heard=[2, 2])))
        assert out.belief == 2

    def test_mean_attraction_hand_case(self):
        # 0.7 * 0 + 0.3 * mean([2, 2]) = 0.6 -> rounds to 1
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(0, heard=[2, 2])))
        assert out.belief == 1

    def test_nudge_pulls_extreme_one_step_toward_zero(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(2, heard=[2], nudge="note")))
        assert out.belief == 1
        neg = parse_opinion_output(mock_backend_rule(reflection_prompt(-2, nudge="note")))
        assert neg.belief == -1

    def test_nudge_ignores_moderate_agents(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(1, nudge="note")))
        assert out.belief == 1

    def test_no_exposure_keeps_belief(self):
        out = parse_opinion_output(mock_backend_rule(reflection_prompt(-1)))
        assert out.belief == -1

    def test_stale_stances_in_memory_are_not_exposures(self):
        prompt = build_reflection_prompt(PERSONA, TOPIC, "Agent 9: (stance +2) old extreme take", [],
                                         OpinionOutput(opinion_text="v", belief=0))
        out = parse_opinion_output(mock_backend_rule(prompt))
        assert out.belief == 0  # nothing heard today

    def test_pure_function_of_prompt(self):
        prompt = reflection_prompt(1, heard=[-2, 0, 2])
        assert mock_backend_rule(prompt) == mock_backend_rule(prompt)

    def test_a_prompt_without_a_stance_value_is_rejected(self):
        with pytest.raises(ValueError, match="lacks a current stance value"):
            mock_backend_rule("== Your current view ==\nno number here")


class TestMockSummary:
    def test_digest_keeps_newest_items_within_budget(self):
        items = [(j, f"(stance +1) message {j}") for j in range(6)]
        prompt = build_summary_prompt("old notes", items, 600)
        digest = mock_summary_rule(prompt)
        expected = "; ".join(f"Agent {j}: (stance +1) message {j}" for j, _ in items[-MOCK_DIGEST_ITEMS:])
        assert digest == expected
        assert len(digest) <= 600

    def test_budget_truncation(self):
        items = [(1, "(stance 0) " + "x" * 400)]
        prompt = build_summary_prompt("", items, 50)
        assert len(mock_summary_rule(prompt)) <= 50

    def test_backend_dispatches_on_prompt_kind(self):
        backend = MockBackend()
        assert backend.name == "mock"
        summary = backend.complete(build_summary_prompt("", [(1, "(stance 0) hi")], 100), 64, 0.0)
        assert "BELIEF:" not in summary
        reply = backend.complete(reflection_prompt(0), 64, 0.7)
        assert reply.startswith("BELIEF:")


class FailingBackend:
    name = "failing"

    def complete(self, prompt, max_length, temperature):
        raise BackendError("wire down")


class TestCompression:
    def test_empty_day_empty_summary(self):
        assert compress_long_term(MockBackend(), "", [], 600) == ("", False)

    def test_empty_day_keeps_old_summary(self):
        assert compress_long_term(MockBackend(), "keep me", [], 600) == ("keep me", False)

    def test_mock_digest_matches_rule(self):
        items = [(j, f"(stance -1) note {j}") for j in range(5)]
        out, failed = compress_long_term(MockBackend(), "old", items, 600)
        expected = "; ".join(f"Agent {j}: (stance -1) note {j}" for j, _ in items[-MOCK_DIGEST_ITEMS:])
        assert out == expected and failed is False

    def test_transport_failure_falls_back_to_truncation(self):
        items = [(1, "aaa"), (2, "bbb")]
        out, failed = compress_long_term(FailingBackend(), "old summary", items, 18)
        assert out == "old summary aaa bb"
        assert failed is True
        assert len(out) <= 18

    def test_result_never_exceeds_budget(self):
        items = [(j, "(stance +2) " + "y" * 300) for j in range(4)]
        out, _ = compress_long_term(MockBackend(), "z" * 500, items, 100)
        assert len(out) <= 100


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload or {})
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def completion(content):
    return {"choices": [{"message": {"content": content}}]}


def remote(session, backoff_base=0.0, **kwargs):
    settings = BackendSettings(kind="remote", base_url="https://api.example.test/v1", model="test-model",
                               api_key_env="ECHOSIM_TEST_KEY", **kwargs)
    return RemoteChatBackend(settings, backoff_base=backoff_base, session=session)


@pytest.mark.parametrize("unset", ["base_url", "model"])
def test_a_remote_backend_needs_a_base_url_and_a_model(unset):
    BackendSettings(kind="mock", **{unset: ""}).validate()  # a mock backend reads neither
    with pytest.raises(ParameterError, match="base_url and model must be set for a remote backend"):
        BackendSettings(kind="remote", **{unset: ""}).validate()


class TestRemoteBackend:
    def test_success_path(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "sk-test")
        session = FakeSession([FakeResponse(payload=completion("BELIEF: 1\nOPINION: ok"))])
        backend = remote(session)
        out = backend.complete("prompt", 64, 0.7)
        assert out == "BELIEF: 1\nOPINION: ok"
        call = session.calls[0]
        assert call["url"].endswith("/chat/completions")
        assert call["json"]["model"] == "test-model"
        assert call["json"]["max_tokens"] == 64
        assert call["headers"]["Authorization"] == "Bearer sk-test"

    def test_retries_transient_failures_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        session = FakeSession([
            requests.ConnectionError("boom"),
            FakeResponse(status_code=503),
            FakeResponse(payload=completion("fine")),
        ])
        assert remote(session, max_retries=3).complete("p", 10, 0.0) == "fine"
        assert len(session.calls) == 3

    def test_gives_up_after_max_retries(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        session = FakeSession([FakeResponse(status_code=500)] * 3)
        with pytest.raises(BackendError, match="gave up"):
            remote(session, max_retries=2).complete("p", 10, 0.0)

    def test_client_error_is_immediate(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        session = FakeSession([FakeResponse(status_code=401, text="denied")])
        with pytest.raises(BackendError, match="HTTP 401"):
            remote(session).complete("p", 10, 0.0)
        assert len(session.calls) == 1

    def test_malformed_body_is_an_error(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        session = FakeSession([FakeResponse(payload={"unexpected": True})])
        with pytest.raises(BackendError, match="malformed"):
            remote(session).complete("p", 10, 0.0)

    def test_missing_key_fails_before_any_request(self, monkeypatch):
        monkeypatch.delenv("ECHOSIM_TEST_KEY", raising=False)
        session = FakeSession([])
        with pytest.raises(BackendError, match="ECHOSIM_TEST_KEY"):
            remote(session).complete("p", 10, 0.0)
        assert session.calls == []


def record_sleeps(monkeypatch):
    sleeps = []
    monkeypatch.setattr("echosim.backends.time.sleep", sleeps.append)
    return sleeps


def jitter_at_its_bound(monkeypatch):
    """Make every jittered backoff sleep its upper bound, so sleeps are exact."""
    monkeypatch.setattr("echosim.backends.random.uniform", lambda low, high: high)


class TestBackoffJitter:
    def test_each_backoff_lies_within_its_full_jitter_bound(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        for _ in range(20):
            session = FakeSession([FakeResponse(status_code=500)] * 5)
            with pytest.raises(BackendError, match="gave up"):
                remote(session, max_retries=4, backoff_base=0.5).complete("p", 10, 0.0)
        assert len(sleeps) == 20 * 4
        bounds = [0.5, 1.0, 2.0, 4.0] * 20
        assert all(0.0 <= s <= bound for s, bound in zip(sleeps, bounds))
        assert len(set(sleeps[::4])) > 1  # the first backoff is drawn anew on each call

    def test_retry_after_is_honoured_exactly(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        session = FakeSession([
            FakeResponse(status_code=429, headers={"Retry-After": "2"}),
            FakeResponse(payload=completion("fine")),
        ])
        assert remote(session, backoff_base=0.5).complete("p", 10, 0.0) == "fine"
        assert sleeps == [2.0]


class TestRetryAfter:
    @pytest.mark.parametrize("status", [429, 503])
    def test_numeric_header_replaces_backoff(self, monkeypatch, status):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        jitter_at_its_bound(monkeypatch)
        session = FakeSession([
            FakeResponse(status_code=status, headers={"Retry-After": "7"}),
            FakeResponse(status_code=500),
            FakeResponse(payload=completion("fine")),
        ])
        out = remote(session, max_retries=3, backoff_base=0.5).complete("p", 10, 0.0)
        assert out == "fine"
        assert sleeps == [7.0, 1.0]  # the header, then the backoff bound of attempt 2

    @pytest.mark.parametrize("status, value", [
        (429, "Wed, 21 Oct 2026 07:28:00 GMT"),  # an HTTP date is not honoured
        (503, "-3"),
        (500, "7"),  # only 429 and 503 carry a usable Retry-After
    ])
    def test_other_headers_fall_back_to_backoff(self, monkeypatch, status, value):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        jitter_at_its_bound(monkeypatch)
        session = FakeSession([
            FakeResponse(status_code=status, headers={"Retry-After": value}),
            FakeResponse(payload=completion("fine")),
        ])
        assert remote(session, backoff_base=0.5).complete("p", 10, 0.0) == "fine"
        assert sleeps == [0.5]

    def test_no_sleep_after_the_last_attempt(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        sleeps = record_sleeps(monkeypatch)
        session = FakeSession([FakeResponse(status_code=429, headers={"Retry-After": "7"})] * 2)
        with pytest.raises(BackendError, match="gave up"):
            remote(session, max_retries=1).complete("p", 10, 0.0)
        assert sleeps == [7.0]


class TestSessions:
    def test_each_thread_gets_its_own_session(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        created = []

        def make_session():
            session = FakeSession([FakeResponse(payload=completion("ok"))] * 2)
            created.append(session)
            return session

        monkeypatch.setattr("requests.Session", make_session)
        backend = RemoteChatBackend(BackendSettings(kind="remote", base_url="https://api.example.test/v1",
                                                    model="m", api_key_env="ECHOSIM_TEST_KEY"))
        assert backend.name == "remote:m"
        assert created == []  # sessions are made on first use
        barrier = threading.Barrier(2, timeout=5)

        def two_calls():
            barrier.wait()  # both threads hold a session at the same time
            backend.complete("p", 10, 0.0)
            backend.complete("p", 10, 0.0)

        threads = [threading.Thread(target=two_calls) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        backend.complete("p", 10, 0.0)
        assert len(created) == 3
        assert sorted(len(s.calls) for s in created) == [1, 2, 2]

    def test_injected_session_is_used_on_every_thread(self, monkeypatch):
        monkeypatch.setenv("ECHOSIM_TEST_KEY", "k")
        session = FakeSession([FakeResponse(payload=completion("ok"))] * 3)
        backend = remote(session)
        threads = [threading.Thread(target=backend.complete, args=("p", 10, 0.0)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        backend.complete("p", 10, 0.0)
        assert len(session.calls) == 3


def test_importing_echosim_leaves_requests_unloaded():
    # only the remote backend needs requests, and its import costs more than the rest of echosim
    code = "import sys, echosim; sys.exit('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(echosim.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
