"""Minimal hand-rolled HTTP/1.1 framing for the asyncio serving tier.

The stdlib's ``http.server`` couples parsing to blocking file objects
and a thread-per-connection model; the asyncio tier needs the opposite:
a **pure, incremental** parser that is fed raw bytes as they arrive and
never touches a socket, so one event loop can interleave hundreds of
connections.  This module is that parser plus the response encoders —
everything byte-level lives here, and :mod:`repro.api.aio.server` only
moves bytes between sockets and these functions.

Design points:

* **Two-phase parsing.**  :meth:`RequestParser.poll_head` yields a
  :class:`RequestHead` as soon as the header block is complete, *before*
  any body byte is consumed — admission control (auth, rate limit, the
  declared-body cap) must run on headers alone, so a rejected 2 GB
  upload never costs a read.  :meth:`RequestParser.poll_body` then
  returns the body once buffered.
* **Pipelining-safe.**  The parser is a splitter over one growing
  buffer: bytes beyond the current request are simply the next
  request's, so a client may write N requests back-to-back and poll
  them out in order.
* **Strict framing limits.**  Oversized request lines / header blocks
  and malformed ``Content-Length`` values raise :class:`ProtocolError`
  — the connection answers a structured error and closes, because a
  stream that cannot be framed cannot be resynced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.api.transport import declared_body_length

__all__ = [
    "MAX_REQUEST_LINE_BYTES",
    "MAX_HEADER_BYTES",
    "ProtocolError",
    "RequestHead",
    "RequestParser",
    "encode_response",
    "reason_phrase",
]

#: Longest accepted request line (method + target + version).  Generous
#: for the v1 surface (targets are short) but bounded: an unframed
#: byte-flood must not grow the buffer without limit.
MAX_REQUEST_LINE_BYTES = 8192

#: Longest accepted header block (request line included).
MAX_HEADER_BYTES = 32768

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def reason_phrase(status: int) -> str:
    return _REASONS.get(int(status), "Unknown")


class ProtocolError(Exception):
    """The byte stream violates HTTP/1.1 framing; the connection must close.

    ``status`` is the HTTP status the connection should answer with
    before closing (400 for malformed framing, 431-ish cases map to 400
    too — the v1 error table has no header-specific code, and
    ``MALFORMED_BODY`` covers every unframeable request).
    """

    def __init__(self, message: str, *, status: int = 400, code: str = "MALFORMED_BODY"):
        super().__init__(message)
        self.message = message
        self.status = int(status)
        self.code = code


@dataclass
class RequestHead:
    """One parsed request line + header block (body not yet read).

    ``headers`` keys are lower-cased (HTTP headers are case-insensitive;
    normalizing once keeps every lookup trivial).  ``content_length`` is
    the *validated* declared body size — the parser rejects garbage and
    negative values before the head is ever surfaced, so consumers can
    trust the number (they must still judge it against the body cap).
    """

    method: str
    target: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    content_length: int = 0

    @property
    def keep_alive(self) -> bool:
        """Whether the client permits reusing the connection afterwards.

        HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
        HTTP/1.0 defaults to close unless ``Connection: keep-alive``.
        """
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


class RequestParser:
    """Incremental splitter: feed bytes, poll heads and bodies in order.

    One parser per connection.  The caller alternates::

        parser.feed(chunk)
        head = parser.poll_head()      # None until headers complete
        ...admission on head.headers...
        body = parser.poll_body(head)  # None until content_length buffered

    Pipelined requests simply queue in the buffer; after ``poll_body``
    returns, the next ``poll_head`` starts on the following request.
    :meth:`pending_bytes` says whether the client has already sent more
    (the observable signal that it is pipelining).
    """

    def __init__(
        self,
        *,
        max_line: int = MAX_REQUEST_LINE_BYTES,
        max_headers: int = MAX_HEADER_BYTES,
    ) -> None:
        self._buffer = bytearray()
        self._max_line = int(max_line)
        self._max_headers = int(max_headers)

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pending_bytes(self) -> int:
        """Bytes buffered beyond what has been polled out."""
        return len(self._buffer)

    # ------------------------------------------------------------------ head
    def poll_head(self) -> RequestHead | None:
        """The next request's head, or ``None`` until its headers complete."""
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            # no complete header block yet — but an unbounded wait is an
            # attack surface, so judge the partial buffer against limits
            if len(self._buffer) > self._max_headers:
                raise ProtocolError(
                    f"header block exceeds {self._max_headers} bytes"
                )
            newline = self._buffer.find(b"\r\n")
            if newline < 0 and len(self._buffer) > self._max_line:
                raise ProtocolError(
                    f"request line exceeds {self._max_line} bytes"
                )
            return None
        if end + 4 > self._max_headers:
            raise ProtocolError(f"header block exceeds {self._max_headers} bytes")
        block = bytes(self._buffer[:end])
        del self._buffer[: end + 4]
        lines = block.split(b"\r\n")
        head = self._parse_request_line(lines[0])
        for raw in lines[1:]:
            if not raw:
                continue
            name, sep, value = raw.partition(b":")
            if not sep or not name or name != name.strip():
                raise ProtocolError(f"malformed header line {raw[:80]!r}")
            try:
                key = name.decode("ascii").lower()
                head.headers[key] = value.strip().decode("latin-1")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"non-ascii header name {name[:80]!r}") from exc
        self._validate_body_framing(head)
        return head

    def _parse_request_line(self, line: bytes) -> RequestHead:
        if len(line) > self._max_line:
            raise ProtocolError(f"request line exceeds {self._max_line} bytes")
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"non-ascii request line {line[:80]!r}") from exc
        parts = text.split(" ")
        if len(parts) != 3:
            raise ProtocolError(f"malformed request line {text[:120]!r}")
        method, target, version = parts
        if not method.isalpha() or method != method.upper():
            raise ProtocolError(f"malformed method {method[:40]!r}")
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise ProtocolError(
                f"unsupported protocol version {version[:40]!r}"
            )
        if not target.startswith("/"):
            raise ProtocolError(f"malformed request target {target[:120]!r}")
        return RequestHead(method=method, target=target, version=version)

    @staticmethod
    def _validate_body_framing(head: RequestHead) -> None:
        """Pin down the body length from the headers (never trust later)."""
        try:
            head.content_length = declared_body_length(head.headers)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None

    # ------------------------------------------------------------------ body
    def poll_body(self, head: RequestHead) -> bytes | None:
        """The request's full body once buffered, else ``None``."""
        need = head.content_length
        if len(self._buffer) < need:
            return None
        body = bytes(self._buffer[:need])
        del self._buffer[:need]
        return body


# --------------------------------------------------------------------------
# response encoding
# --------------------------------------------------------------------------
def encode_response(
    status: int,
    body: bytes,
    content_type: str = "application/json; charset=utf-8",
    *,
    extra_headers: dict[str, str] | None = None,
    close: bool = False,
) -> bytes:
    """One complete response, head and ``Content-Length`` body, ready to
    write — the only response shape there is."""
    lines = [
        f"HTTP/1.1 {int(status)} {reason_phrase(status)}",
        "Server: repro-aio/1",
        f"Content-Type: {content_type}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    if close:
        lines.append("Connection: close")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def encode_json_response(
    status: int,
    payload: dict,
    *,
    extra_headers: dict[str, str] | None = None,
    close: bool = False,
) -> bytes:
    return encode_response(
        status,
        json.dumps(payload).encode("utf-8"),
        extra_headers=extra_headers,
        close=close,
    )
