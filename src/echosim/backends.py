"""Text backends for the language engine.

A backend is anything with a ``name`` and a ``complete(prompt, max_length,
temperature) -> str`` method that never mutates simulation state. The mock
backend is a pure function of the prompt string, which makes full language
runs deterministic and testable offline; the remote backend talks to an
HTTP(S) chat-completion endpoint with timeout, retry, and backoff.
``BackendSettings``, a run config's ``backend`` section, is declared here
beside the remote backend that reads it.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import re
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Protocol
from urllib.parse import urlsplit

from .errors import INF, BackendError, ParameterError, check_fields
from .population import clamp_to_grid
from .prompts import (
    SECTION_EXCHANGES,
    SECTION_FORMAT,
    SECTION_HEARD,
    SECTION_NOTE,
    STANCE_STATEMENTS,
    SUMMARY_HEADER,
)

logger = logging.getLogger(__name__)

_STANCE_TOKEN_RE = re.compile(r"\(stance ([+-]?\d+)\)")
_OWN_STANCE_RE = re.compile(r"Stance value:\s*([+-]?\d+)")
_EXCHANGE_LINE_RE = re.compile(r"^- (Agent \d+): (.*)$", re.MULTILINE)
_BUDGET_RE = re.compile(r"at most (\d+) characters")

MOCK_DIGEST_ITEMS = 3  # the mock summarizer keeps the newest k exchanges

BACKEND_KINDS = ("mock", "remote")


@dataclass(frozen=True)
class BackendSettings:
    kind: str = field(default="mock", metadata={"choices": BACKEND_KINDS})
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = field(default=30.0, metadata={"range": ("(", 0, INF, ")")})
    max_retries: int = field(default=3, metadata={"range": ("[", 0, INF, ")")})

    def validate(self) -> None:
        check_fields(self)
        if self.kind != "remote":
            return
        if not self.base_url or not self.model:
            raise ParameterError("base_url and model must be set for a remote backend")
        try:
            url = urlsplit(self.base_url)
            url.port  # ValueError unless absent or a number in [0, 65535]
        except ValueError:
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ParameterError(f"base_url must be an absolute http or https URL with a host, got {self.base_url!r}")


class TextBackend(Protocol):
    name: str

    def complete(self, prompt: str, max_length: int, temperature: float) -> str:
        ...


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _section(prompt: str, header: str) -> str:
    """Text of one ``== ... ==`` section, up to the next section header."""
    start = prompt.find(header)
    if start == -1:
        return ""
    start += len(header)
    end = prompt.find("\n== ", start)
    return prompt[start:] if end == -1 else prompt[start:end]


def mock_backend_rule(prompt: str) -> str:
    """Deterministic reply to a reflection prompt.

    The new stance is ``round(0.7 * own + 0.3 * mean(heard stances))``
    (half away from zero), or the current stance when nothing was heard.
    A platform note pulls an extreme agent's target one step toward 0.
    Always emits well-formed BELIEF/OPINION lines.
    """
    own_match = _OWN_STANCE_RE.search(prompt)
    if own_match is None:
        raise ValueError("prompt lacks a current stance value")
    own = int(own_match.group(1))

    heard = [int(s) for s in _STANCE_TOKEN_RE.findall(_section(prompt, SECTION_HEARD))]
    if heard:
        target = _round_half_away(0.7 * own + 0.3 * (sum(heard) / len(heard)))
    else:
        target = own
    if SECTION_NOTE in prompt and abs(own) == 2 and target != 0:
        target += -1 if target > 0 else 1
    target = clamp_to_grid(target)
    return f"BELIEF: {target}\nOPINION: {STANCE_STATEMENTS[target]}"


def mock_summary_rule(prompt: str) -> str:
    """Deterministic reply to a note-compression prompt: a digest of the
    newest exchanges, truncated to the requested budget."""
    budget_match = _BUDGET_RE.search(_section(prompt, SECTION_FORMAT))
    if budget_match is None:
        raise ValueError("prompt lacks a notes budget")
    budget = int(budget_match.group(1))
    lines = _EXCHANGE_LINE_RE.findall(_section(prompt, SECTION_EXCHANGES))
    digest = "; ".join(f"{who}: {text}" for who, text in lines[-MOCK_DIGEST_ITEMS:])
    return digest[:budget]


class MockBackend:
    """Offline test double; pure function of the prompt, ignores temperature."""

    name = "mock"

    def complete(self, prompt: str, max_length: int, temperature: float) -> str:
        if SUMMARY_HEADER in prompt:
            return mock_summary_rule(prompt)
        return mock_backend_rule(prompt)


class RemoteChatBackend:
    """Chat-completion client over HTTP or HTTPS, at the endpoint, model,
    timeout and retry count of ``settings``.

    The API key is read when the backend is built, from the environment
    variable that ``settings.api_key_env`` names, never from configuration
    files. A key must be printable ASCII, which a header can carry (no CR,
    no curly quote); an empty or other key raises BackendError, which names
    the variable and not the key. Transient transport failures and 429/5xx
    responses are retried after the server's numeric ``Retry-After`` on a 429
    or 503, capped at ``settings.timeout`` seconds, or else after a "full
    jitter" backoff: a uniform draw from [0, backoff_base * 2 ** (attempt - 1)]
    seconds. Anything else raises BackendError. A call takes an idle
    ``http.client`` connection of the backend's, or opens one when all are
    busy, and gives it back when it returns, so no two calls share one. A transport error closes it and the
    next attempt reconnects; so does a kept-alive connection that the server
    closed while it was idle, found by a zero-timeout ``select`` before each
    request. Idle connections are closed when the backend is collected. HTTPS
    is verified against the system's CA store; proxy variables are not read.
    """

    def __init__(self, settings: BackendSettings, backoff_base: float = 0.5):
        self._settings = settings
        self.backoff_base = backoff_base
        key = os.environ.get(settings.api_key_env, "")
        if not key:
            raise BackendError(f"environment variable {settings.api_key_env} is not set")
        if not (key.isascii() and key.isprintable()):
            raise BackendError(f"environment variable {settings.api_key_env} holds a character that is not "
                               "printable ASCII, which an HTTP header cannot carry")
        self._headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        self._idle = deque()  # connections no call holds, the last given back on top
        weakref.finalize(self, _close_all, self._idle)
        self.name = f"remote:{settings.model}"

    def complete(self, prompt: str, max_length: int, temperature: float) -> str:
        import http.client  # here, not at the top: with ssl, it takes tens of milliseconds to import
        import select
        settings = self._settings
        url = urlsplit(settings.base_url)
        path = f"{url.path.rstrip('/')}/chat/completions"
        body = {
            "model": settings.model,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": max_length,
            "temperature": temperature,
        }
        try:
            connection = self._idle.pop()
        except IndexError:  # every open connection is busy; the socket opens with the first request
            kind = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
            connection = kind(url.hostname, url.port, timeout=settings.timeout)
        try:
            last_error = "no attempt made"
            retry_after = None
            for attempt in range(settings.max_retries + 1):
                if attempt:
                    if retry_after is None:
                        time.sleep(random.uniform(0, self.backoff_base * 2 ** (attempt - 1)))
                    else:
                        time.sleep(min(retry_after, settings.timeout))
                retry_after = None
                if connection.sock is not None and select.select([connection.sock], [], [], 0)[0]:
                    connection.close()  # idle, it reads only at the server's close (or stray bytes): reconnect
                try:
                    connection.request("POST", path, json.dumps(body).encode(), self._headers)
                    response = connection.getresponse()
                    status, text = response.status, response.read().decode("utf-8", "replace")
                except (OSError, http.client.HTTPException) as exc:
                    connection.close()  # the next request reconnects
                    last_error = str(exc) or type(exc).__name__
                    logger.debug("request to %s failed (attempt %d): %s", settings.base_url, attempt, last_error)
                    continue
                logger.debug("request=%r response_status=%s response=%r (key redacted)", body, status, text[:2000])
                if status == 429 or status >= 500:
                    last_error = f"HTTP {status}"
                    if status in (429, 503):
                        retry_after = _retry_after_seconds(response.getheader("Retry-After"))
                    continue
                if status != 200:
                    raise BackendError(f"HTTP {status}: {text[:200]}")
                try:
                    content = json.loads(text)["choices"][0]["message"]["content"]
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    raise BackendError(f"malformed completion response: {exc}") from exc
                if not isinstance(content, str):  # a refusal or a tool call carries null content
                    raise BackendError(f"malformed completion response: content is {content!r}")
                return content
            raise BackendError(f"gave up after {settings.max_retries + 1} attempts: {last_error}")
        finally:
            self._idle.append(connection)


def _close_all(connections: deque) -> None:
    while connections:
        connections.pop().close()


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """Seconds of a numeric ``Retry-After`` header; None when absent, an
    HTTP date, or not a finite non-negative number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None

