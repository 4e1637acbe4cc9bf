"""Asyncio serving tier: event-loop HTTP/1.1 front end for the v1 API.

The package splits along the seams the design needs tested in
isolation:

* :mod:`repro.api.aio.http11` — pure incremental HTTP/1.1 parsing and
  response encoding (no sockets, no loop);
* :mod:`repro.api.aio.server` — one event loop driving sockets under
  the shared request pipeline (:mod:`repro.api.pipeline`): accept loop,
  one ``asyncio.BufferedProtocol`` per connection (keep-alive,
  pipelining, read/write backpressure, the idle bound), graceful
  drain.  Where code runs: the pipeline's ``ready`` phase — what is
  already in memory, a result-cache hit above all — is answered on the
  loop; its ``compute`` phase — anything that can wait — on a bounded
  ``aio-dispatch`` thread pool;
* :mod:`repro.api.aio.supervisor` — the multi-loop topology: N worker
  processes, each its own loop, sharing one port via ``SO_REUSEPORT``;
* ``python -m repro.api.aio`` — the CLI (the flag table of
  :mod:`repro.api.cli`, plus ``--loops`` and the per-loop bounds).
"""

from repro.api.aio.http11 import ProtocolError, RequestHead, RequestParser
from repro.api.aio.server import AioApiServer, serve, serve_background
from repro.api.aio.supervisor import LoopGroup

__all__ = [
    "AioApiServer",
    "LoopGroup",
    "ProtocolError",
    "RequestHead",
    "RequestParser",
    "serve",
    "serve_background",
]
