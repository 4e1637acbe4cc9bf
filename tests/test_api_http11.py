"""Unit tests of the hand-rolled HTTP/1.1 parser and encoders.

Pure byte-level tests — no sockets, no event loop.  The parser is the
trust boundary of the asyncio tier: every framing decision it makes
(keep-alive defaults, Content-Length validation, pipelined splitting,
size limits on unbounded buffers) is pinned here, byte by byte.
"""

from __future__ import annotations

import pytest

from repro.api.aio.http11 import (
    MAX_HEADER_BYTES,
    MAX_REQUEST_LINE_BYTES,
    ProtocolError,
    RequestParser,
    encode_response,
    reason_phrase,
)


def feed_all(raw: bytes) -> RequestParser:
    parser = RequestParser()
    parser.feed(raw)
    return parser


class TestHeadParsing:
    def test_simple_get(self):
        parser = feed_all(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
        head = parser.poll_head()
        assert head.method == "GET"
        assert head.target == "/v1/health"
        assert head.version == "HTTP/1.1"
        assert head.headers["host"] == "x"
        assert head.content_length == 0
        assert head.keep_alive

    def test_incremental_byte_at_a_time(self):
        raw = b"POST /v1/search HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        parser = RequestParser()
        head = None
        for i in range(len(raw)):
            parser.feed(raw[i : i + 1])
            if head is None:
                head = parser.poll_head()
        assert head is not None
        assert head.content_length == 2
        assert parser.poll_body(head) == b"{}"

    def test_header_names_lowercased_values_stripped(self):
        parser = feed_all(
            b"GET / HTTP/1.1\r\nX-Client-ID:   alice  \r\nAUTHORIZATION: Bearer t\r\n\r\n"
        )
        head = parser.poll_head()
        assert head.headers["x-client-id"] == "alice"
        assert head.headers["authorization"] == "Bearer t"

    def test_none_until_headers_complete(self):
        parser = feed_all(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n")
        assert parser.poll_head() is None
        parser.feed(b"\r\n")
        assert parser.poll_head() is not None

    @pytest.mark.parametrize(
        "line",
        [
            b"BOGUS\r\n\r\n",  # no target/version
            b"GET /v1/health\r\n\r\n",  # missing version
            b"get /v1/health HTTP/1.1\r\n\r\n",  # lowercase method
            b"G3T /v1/health HTTP/1.1\r\n\r\n",  # non-alpha method
            b"GET /v1/health HTTP/2.0\r\n\r\n",  # unsupported version
            b"GET v1/health HTTP/1.1\r\n\r\n",  # relative target
            b"GET /a b HTTP/1.1\r\n\r\n",  # embedded space (4 parts)
        ],
    )
    def test_malformed_request_lines(self, line):
        with pytest.raises(ProtocolError):
            feed_all(line).poll_head()

    def test_malformed_header_line(self):
        with pytest.raises(ProtocolError):
            feed_all(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").poll_head()

    def test_request_line_limit_applies_to_incomplete_buffer(self):
        # an attacker streaming an endless request line must be cut off
        # even though no newline ever arrives
        parser = feed_all(b"GET /" + b"a" * MAX_REQUEST_LINE_BYTES)
        with pytest.raises(ProtocolError):
            parser.poll_head()

    def test_header_block_limit(self):
        raw = b"GET / HTTP/1.1\r\n" + b"X-Pad: " + b"b" * MAX_HEADER_BYTES + b"\r\n\r\n"
        with pytest.raises(ProtocolError):
            feed_all(raw).poll_head()


class TestBodyFraming:
    def test_body_polls_none_until_buffered(self):
        parser = feed_all(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab")
        head = parser.poll_head()
        assert parser.poll_body(head) is None
        parser.feed(b"cd")
        assert parser.poll_body(head) == b"abcd"

    # '+5' and '1_0' parse fine through int() — RFC 9110 says 1*DIGIT,
    # and leniency the front proxy doesn't share is a smuggling opening
    @pytest.mark.parametrize("value", [b"nope", b"-5", b"1e3", b"+5", b"1_0", b""])
    def test_bad_content_length_rejected_at_head(self, value):
        raw = b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
        with pytest.raises(ProtocolError):
            feed_all(raw).poll_head()

    def test_transfer_encoding_requests_rejected(self):
        # a chunked request body would make the declared-length body cap
        # meaningless; the tier only accepts Content-Length requests
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(ProtocolError):
            feed_all(raw).poll_head()


class TestPipelining:
    def test_two_pipelined_requests_split_in_order(self):
        raw = (
            b"POST /v1/search HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
            b"GET /v1/health HTTP/1.1\r\n\r\n"
        )
        parser = feed_all(raw)
        first = parser.poll_head()
        assert first.target == "/v1/search"
        assert parser.poll_body(first) == b"{}"
        assert parser.pending_bytes() > 0  # the client pipelined
        second = parser.poll_head()
        assert second.target == "/v1/health"
        assert parser.poll_body(second) == b""
        assert parser.pending_bytes() == 0


class TestKeepAliveDefaults:
    def test_http11_defaults_keep_alive(self):
        head = feed_all(b"GET / HTTP/1.1\r\n\r\n").poll_head()
        assert head.keep_alive

    def test_http11_connection_close(self):
        head = feed_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").poll_head()
        assert not head.keep_alive

    def test_http10_defaults_close(self):
        head = feed_all(b"GET / HTTP/1.0\r\n\r\n").poll_head()
        assert not head.keep_alive

    def test_http10_explicit_keep_alive(self):
        head = feed_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").poll_head()
        assert head.keep_alive


class TestEncoders:
    def test_fixed_response_roundtrip(self):
        data = encode_response(200, b'{"ok":1}')
        text, _, body = data.partition(b"\r\n\r\n")
        assert text.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 8" in text
        assert body == b'{"ok":1}'
        assert b"Connection: close" not in text

    def test_close_header_advertised(self):
        data = encode_response(400, b"{}", close=True)
        assert b"Connection: close" in data.split(b"\r\n\r\n")[0]

    def test_extra_headers_emitted(self):
        data = encode_response(429, b"{}", extra_headers={"Retry-After": "2"})
        assert b"Retry-After: 2" in data.split(b"\r\n\r\n")[0]

    def test_reason_phrases(self):
        assert reason_phrase(200) == "OK"
        assert reason_phrase(429) == "Too Many Requests"
        assert reason_phrase(599) == "Unknown"
