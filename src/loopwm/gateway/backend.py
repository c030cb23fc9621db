"""Agent backend configuration and the HTTP client with transcript capture.

A backend is either "builtin" (the in-process planner and critic) or
"remote" (JSON over HTTP against /plan, /replan, /critic). Remote configs
are validated up front, auth is a bearer token read from a named
environment variable, and every exchange is recorded with canonical-JSON
sha256 hashes so integration runs can be replayed and byte-compared.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import LoopwmError, RemoteError, WireError

_log = logging.getLogger(__name__)

KINDS = ("builtin", "remote")

DEFAULT_TIMEOUT = 5.0
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class AgentBackend:
    kind: str
    base_url: str = ""
    timeout: float = DEFAULT_TIMEOUT
    retries: int = DEFAULT_RETRIES
    token_env: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise LoopwmError(f"backend kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "remote":
            if not self.base_url.startswith(("http://", "https://")):
                raise LoopwmError(
                    f"remote backend needs an http(s) base_url, got {self.base_url!r}"
                )
            if self.timeout <= 0:
                raise LoopwmError(f"timeout must be > 0, got {self.timeout}")
            if self.retries < 0:
                raise LoopwmError(f"retries must be >= 0, got {self.retries}")


def remote_backend(base_url: str, **kwargs) -> AgentBackend:
    return AgentBackend("remote", base_url=base_url, **kwargs)


def canonical_bytes(payload: dict) -> bytes:
    """One stable byte rendering per payload, the unit of hashing and replay."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def payload_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


@dataclass(frozen=True)
class WireRecord:
    """One completed exchange, hashed for replay comparison."""

    endpoint: str
    request: dict
    response: dict
    request_sha256: str
    response_sha256: str
    status: int
    attempts: int

    def to_dict(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "request": self.request,
            "response": self.response,
            "request_sha256": self.request_sha256,
            "response_sha256": self.response_sha256,
            "status": self.status,
            "attempts": self.attempts,
        }


class RemoteClient:
    """POSTs canonical JSON with retry-on-transient-failure semantics.

    Retries cover network errors, timeouts, and 5xx responses; a 4xx is a
    contract violation and fails immediately. Independent request contexts
    make the client safe for concurrent use; the transcript list append is
    atomic under the GIL.
    """

    def __init__(self, backend: AgentBackend):
        if backend.kind != "remote":
            raise LoopwmError("RemoteClient needs a remote backend")
        self.backend = backend
        self.transcript: list[WireRecord] = []
        self._token = ""
        if backend.token_env:
            token = os.environ.get(backend.token_env, "")
            if not token:
                raise LoopwmError(
                    f"auth token environment variable {backend.token_env!r} is not set"
                )
            self._token = token

    def post(self, endpoint: str, payload: dict) -> dict:
        url = self.backend.base_url.rstrip("/") + endpoint
        body = canonical_bytes(payload)
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        attempts = self.backend.retries + 1
        last_error: Exception | None = None
        for attempt in range(1, attempts + 1):
            request = urllib.request.Request(url, data=body, headers=headers, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=self.backend.timeout) as reply:
                    raw = reply.read()
                    status = reply.status
            except urllib.error.HTTPError as exc:
                if exc.code >= 500 and attempt < attempts:
                    _log.warning("%s returned %d, retrying (%d/%d)", endpoint, exc.code,
                                 attempt, attempts)
                    last_error = exc
                    continue
                detail = exc.read().decode(errors="replace")[:200]
                raise RemoteError(
                    f"{endpoint} returned HTTP {exc.code}: {detail}"
                ) from exc
            except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as exc:
                if attempt < attempts:
                    _log.warning("%s failed (%s), retrying (%d/%d)", endpoint, exc,
                                 attempt, attempts)
                    last_error = exc
                    continue
                raise RemoteError(
                    f"{endpoint} unreachable after {attempts} attempts: {exc}"
                ) from exc
            try:
                parsed = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise RemoteError(f"{endpoint} returned unparseable JSON: {exc}") from exc
            if not isinstance(parsed, dict):
                raise WireError(f"{endpoint} response must be a JSON object")
            self.transcript.append(
                WireRecord(
                    endpoint=endpoint,
                    request=payload,
                    response=parsed,
                    request_sha256=payload_hash(payload),
                    response_sha256=payload_hash(parsed),
                    status=status,
                    attempts=attempt,
                )
            )
            return parsed
        raise RemoteError(
            f"{endpoint} failed after {attempts} attempts: {last_error}"
        )

    def write_transcript(self, path: str | Path) -> Path:
        """Line-delimited JSON, canonical key order, one exchange per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.transcript:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return path
