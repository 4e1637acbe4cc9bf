"""Generic length-prefixed RPC layer shared by the wall and the serving tier.

The paper's cluster has two communication patterns: the display wall's
master/node tile protocol and (in our reproduction) the sharded serving
tier's scatter-gather query fan-out.  Both need the same substrate —
typed messages over a framed byte transport, node membership with
liveness, and fan-out with per-node timeouts whose failures surface as
*structured partial results*, never silent cuts.  This package provides
that substrate:

- :mod:`repro.rpc.framing` — length-prefixed frames with magic + size
  guards over any socket-like stream.
- :mod:`repro.rpc.server` / :mod:`repro.rpc.client` — a threaded TCP
  request/reply server with a handler registry and a reconnecting client.
- :mod:`repro.rpc.membership` — node tables, heartbeats, and
  ``scatter`` fan-out returning explicit per-node ok/failed maps.
"""

from repro.rpc.client import RpcClient
from repro.rpc.faults import FAULT_KINDS, FaultPlan
from repro.rpc.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)
from repro.rpc.membership import Membership, NodeState, ScatterResult
from repro.rpc.policy import CircuitBreaker, RetryPolicy
from repro.rpc.server import RpcHandlerError, RpcServer
from repro.util.deadline import Deadline, DeadlineExceeded
from repro.util.errors import RpcError

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FAULT_KINDS",
    "FaultPlan",
    "FrameError",
    "MAX_FRAME_BYTES",
    "Membership",
    "NodeState",
    "RetryPolicy",
    "RpcClient",
    "RpcError",
    "RpcHandlerError",
    "RpcServer",
    "ScatterResult",
    "decode_message",
    "encode_message",
    "read_frame",
    "write_frame",
]
