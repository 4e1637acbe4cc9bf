"""Serving hardening for the API boundary: auth, rate limits, body caps.

The HTTP facade fronts a shared index for many tenants; before this
module, any client could hold the service hostage — an unauthenticated
loop of deep queries monopolizes the scoring arena, and a single bogus
``Content-Length: 2GB`` header used to be an allocation request.  The
:class:`RequestGate` centralizes the three defenses the ROADMAP names
("auth/rate limits on the HTTP facade") so that **every transport
inherits them**: ``ApiApp._parse`` — the one way into every route —
runs ``gate.admit(endpoint, context)`` before any work, and a transport
only has to describe the request in a :class:`RequestContext`:

* **Bearer-token auth** — a single shared token (read from
  ``--auth-token-file`` by the CLI), compared constant-time with
  :func:`hmac.compare_digest` so the comparison leaks no prefix timing.
  Failure is the stable ``UNAUTHORIZED`` code (HTTP 401).
* **Token-bucket rate limiting** — per client key.  The key is the
  *transport-assigned* ``client`` (the HTTP facade uses the peer
  address); a caller-declared key (``declared_client``, from the
  ``X-Client-Id`` header) is honored **only on authenticated
  requests** — the caller then holds the shared secret (e.g. a trusted
  frontend forwarding tenant ids), whereas an anonymous client could
  otherwise mint a fresh bucket (and a fresh burst) per request and
  void the limit entirely.  Each key gets a bucket of ``rate_burst``
  tokens refilled at ``rate_limit`` tokens/second; an empty bucket
  answers ``RATE_LIMITED`` (HTTP 429) with a machine-usable
  ``retry_after_ms`` in the error details.  The key map is itself
  bounded (LRU) so an attacker spraying client ids cannot grow it
  without limit.
* **Request body cap** — bodies over ``max_body_bytes`` are rejected
  with ``BODY_TOO_LARGE`` (HTTP 413).  Transports that know the
  declared size *before* reading (HTTP ``Content-Length``) must check
  via :meth:`RequestGate.check_body` pre-read — rejecting after
  allocation defends nothing.
* **Per-token quotas** — with ``auth_tokens`` (token -> principal name)
  the gate recognizes *many* credentials, and ``token_rate_limit``
  gives each authenticated principal its own bucket, **distinct from**
  the per-peer buckets above: the peer bucket throttles a network
  endpoint, the token bucket throttles an identity no matter how many
  addresses it connects from.  Both run inside ``admit`` (the token
  rides in the headers, so admission sees it pre-body).
* **Per-tenant budgets** — ``tenant_rate_limit`` bounds how fast any
  one *compendium* may be queried, across all callers.  The tenant
  name rides in the request body, which transports admit before
  reading — so this charge happens post-parse via
  :meth:`RequestGate.charge_tenant`, called by ``ApiApp._parse`` once
  the request's tenant is known and before it is resolved, on every
  route: an over-budget request never loads (or evicts) a tenant.  All three limiter failures answer the
  same stable ``RATE_LIMITED`` code with ``retry_after_ms`` (a
  ``scope`` detail says which budget ran dry), so every transport's
  existing ``Retry-After`` derivation keeps working unchanged.

``/v1/health`` stays exempt from auth and rate limiting by default:
liveness probes must not flap when a deploy rotates tokens or a probe
loop exceeds the tenant budget.  All counters are surfaced in the
health payload (``limits``) so the policy's behavior is observable.
"""

from __future__ import annotations

import hmac
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

from repro.api.errors import ApiError

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "RequestContext",
    "TokenBucket",
    "RateLimiter",
    "RequestGate",
]

#: Largest request body admitted by default (a batch of thousands of
#: queries fits comfortably; anything larger is a client bug).
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Endpoints exempt from auth + rate limiting by default (liveness
#: probes must keep answering while credentials rotate).
DEFAULT_EXEMPT = ("health",)


@dataclass(frozen=True)
class RequestContext:
    """What a transport knows about one request, for admission control.

    ``client`` is the *transport-assigned* rate-limiting key (the HTTP
    facade uses the peer address — something the client cannot forge
    per request); ``declared_client`` is a caller-supplied key
    (``X-Client-Id``) that the gate honors only once auth has vouched
    for the caller.  ``auth_token`` is the presented bearer token
    (``None`` when absent); ``body_bytes`` is the declared or observed
    request body size (``None`` when unknown).  ``admitted=True``
    marks a context whose transport already ran :meth:`RequestGate.admit`
    (e.g. the HTTP facade, which must gate *before* reading the body);
    the gate then skips re-checking so one request never spends two
    tokens.  In-process callers that pass no context bypass the gate
    entirely — admission control is a *transport* boundary concern.
    """

    client: str = "local"
    auth_token: str | None = None
    body_bytes: int | None = None
    declared_client: str | None = None
    admitted: bool = False


class TokenBucket:
    """One client's budget: ``burst`` tokens, refilled at ``rate``/second.

    Not thread-safe on its own — :class:`RateLimiter` serializes access.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = float(now)

    def try_acquire(self, now: float) -> float:
        """Spend one token; returns 0.0 on success, else seconds until
        the next token becomes available (the ``Retry-After`` hint)."""
        elapsed = max(0.0, now - self.stamp)
        self.stamp = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets behind one lock, with a bounded key map.

    ``check(client)`` returns 0.0 when the request is admitted, else the
    seconds the client should wait.  At most ``max_clients`` buckets are
    retained (least-recently-seen evicted first), so hostile key
    churn cannot grow the map without bound — an evicted client simply
    restarts from a full burst, which errs on the side of serving.
    """

    def __init__(
        self, rate: float, burst: int | None = None, *, max_clients: int = 4096
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/second, got {rate}")
        self.rate = float(rate)
        self.burst = max(1, int(burst if burst is not None else math.ceil(rate)))
        self.max_clients = max(1, int(max_clients))
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._lock = threading.Lock()

    def check(self, client: str, now: float | None = None) -> float:
        now = time.monotonic() if now is None else float(now)
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[client] = bucket
            else:
                self._buckets.move_to_end(client)
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
            return bucket.try_acquire(now)


class RequestGate:
    """Admission control every transport runs before touching the service.

    ``auth_token=None`` disables auth, ``rate_limit=0`` disables rate
    limiting, and the body cap always applies (it defends the process,
    not a tenant policy).  ``admit`` raises :class:`ApiError` with the
    stable codes ``UNAUTHORIZED`` / ``RATE_LIMITED`` / ``BODY_TOO_LARGE``;
    a ``context`` of ``None`` (in-process caller) is always admitted.
    """

    def __init__(
        self,
        *,
        auth_token: str | None = None,
        auth_tokens: Mapping[str, str] | None = None,
        rate_limit: float = 0.0,
        rate_burst: int | None = None,
        token_rate_limit: float = 0.0,
        token_rate_burst: int | None = None,
        tenant_rate_limit: float = 0.0,
        tenant_rate_burst: int | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        exempt: tuple[str, ...] = DEFAULT_EXEMPT,
    ) -> None:
        # one credential map: the legacy single token becomes principal
        # "default", so every downstream consumer (quota key, stats)
        # sees exactly one shape
        self._principals: dict[str, str] = {
            str(tok): str(name) for tok, name in (auth_tokens or {}).items() if tok
        }
        if auth_token:
            self._principals.setdefault(str(auth_token), "default")
        self.auth_token = auth_token if auth_token else None
        self.max_body_bytes = int(max_body_bytes)
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.rate_limit = max(0.0, float(rate_limit))
        self._limiter = (
            RateLimiter(self.rate_limit, rate_burst) if self.rate_limit > 0 else None
        )
        self.token_rate_limit = max(0.0, float(token_rate_limit))
        self._token_limiter = (
            RateLimiter(self.token_rate_limit, token_rate_burst)
            if self.token_rate_limit > 0
            else None
        )
        self.tenant_rate_limit = max(0.0, float(tenant_rate_limit))
        self._tenant_limiter = (
            RateLimiter(self.tenant_rate_limit, tenant_rate_burst)
            if self.tenant_rate_limit > 0
            else None
        )
        self.exempt = frozenset(exempt)
        self._lock = threading.Lock()
        self.unauthorized = 0
        self.rate_limited = 0
        self.token_limited = 0
        self.tenant_limited = 0
        self.body_rejected = 0

    @property
    def auth_required(self) -> bool:
        return bool(self._principals)

    # --------------------------------------------------------------- checks
    def check_body(self, body_bytes: int | None) -> None:
        """Reject an overlong (declared or observed) body — call this
        *before* reading the body off the wire."""
        if body_bytes is not None and int(body_bytes) > self.max_body_bytes:
            with self._lock:
                self.body_rejected += 1
            raise ApiError(
                "BODY_TOO_LARGE",
                f"request body of {int(body_bytes)} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
                details={
                    "body_bytes": int(body_bytes),
                    "max_body_bytes": self.max_body_bytes,
                },
            )

    def _check_auth(self, context: RequestContext) -> str | None:
        """Validate the bearer token; returns the principal name.

        ``None`` means auth is disabled.  Every configured credential is
        compared with :func:`hmac.compare_digest` and the scan never
        short-circuits, so the comparison leaks neither a prefix nor
        *which* token matched.
        """
        if not self._principals:
            return None
        presented = context.auth_token
        principal = None
        if presented is not None:
            raw = presented.encode("utf-8")
            for token, name in self._principals.items():
                if hmac.compare_digest(raw, token.encode("utf-8")):
                    principal = name
        if principal is None:
            with self._lock:
                self.unauthorized += 1
            raise ApiError(
                "UNAUTHORIZED",
                "missing or invalid bearer token"
                if presented is None
                else "invalid bearer token",
                details={"scheme": "Bearer"},
            )
        return principal

    def _rate_key(self, context: RequestContext) -> str:
        """The bucket key for one request.

        The caller-declared key (``X-Client-Id``) is only honored when
        auth is on — ``admit`` runs the auth check first, so reaching
        here means the token was validated and the caller is trusted to
        forward tenant ids.  Anonymous requests always key on the
        transport-assigned ``client`` (peer address): a spoofable key
        would hand every request a fresh bucket and void the limit.
        """
        if self._principals and context.declared_client:
            return str(context.declared_client)
        return str(context.client)

    def _spend(
        self, limiter: RateLimiter, key: str, counter: str, refusal: str, name: str, **scope
    ) -> None:
        """Spend one token from ``limiter`` under ``key``.

        An empty bucket bumps ``counter`` and raises ``RATE_LIMITED``
        with ``retry_after_ms``: ``refusal`` is the message, formatted
        with ``name`` and the limiter's rate, and ``scope`` extends the
        ``details``.
        """
        wait = limiter.check(key)
        if wait > 0.0:
            with self._lock:
                setattr(self, counter, getattr(self, counter) + 1)
            retry_after_ms = max(1, int(math.ceil(wait * 1000.0)))
            raise ApiError(
                "RATE_LIMITED",
                f"{refusal.format(name, limiter.rate)}; retry in {retry_after_ms} ms",
                details={
                    "retry_after_ms": retry_after_ms,
                    "rate_limit_per_second": limiter.rate,
                    **scope,
                },
            )

    def _check_rate(self, context: RequestContext) -> None:
        if self._limiter is None:
            return
        key = self._rate_key(context)
        self._spend(
            self._limiter, key, "rate_limited",
            "client {!r} exceeded {:g} requests/second", key,
        )

    def _check_token_quota(self, principal: str | None) -> None:
        """Spend one token from the authenticated principal's quota.

        Distinct from the per-peer buckets: this keys on *who* the
        caller is (the credential's principal), not where they connect
        from, so a tenant cannot multiply its quota by fanning out over
        addresses.  Only meaningful once auth identified a principal.
        """
        if self._token_limiter is None or principal is None:
            return
        self._spend(
            self._token_limiter, f"token:{principal}", "token_limited",
            "token {!r} exceeded its {:g} requests/second quota", principal,
            scope="token", principal=principal,
        )

    def charge_tenant(self, tenant: str, context: RequestContext | None) -> None:
        """Spend one token from a tenant compendium's rate budget.

        The tenant name rides in the request *body*, which transports
        admit before reading — so this runs post-parse, called by
        ``ApiApp._parse`` once the request's tenant is named (and before
        it is resolved, so a refused request never loads it).  In-process
        callers (``context is None``) bypass it like every other check:
        admission control is a transport boundary concern.
        """
        if self._tenant_limiter is None or context is None:
            return
        self._spend(
            self._tenant_limiter, f"tenant:{tenant}", "tenant_limited",
            "compendium {!r} exceeded its {:g} requests/second budget", tenant,
            scope="tenant", compendium=tenant,
        )

    def admit(self, endpoint: str, context: RequestContext | None) -> None:
        """Run every check for one request; raises on the first failure.

        Order: auth (an unauthenticated flood must not drain a tenant's
        bucket), then the authenticated principal's quota, then the
        per-peer rate limit, then the body cap.  ``health`` (and any
        other ``exempt`` endpoint) skips auth + rate limiting but still
        honors the body cap.  A context marked ``admitted`` was already
        gated by its transport (pre-body-read) and passes through — no
        double-spent tokens, no double-counted rejections.
        """
        if context is None or context.admitted:
            return
        if endpoint not in self.exempt:
            principal = self._check_auth(context)
            self._check_token_quota(principal)
            self._check_rate(context)
        self.check_body(context.body_bytes)

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Counters + configuration for the health payload."""
        with self._lock:
            return {
                "auth_required": bool(self._principals),
                "auth_principals": len(self._principals),
                "rate_limit_per_second": self.rate_limit,
                "token_rate_limit_per_second": self.token_rate_limit,
                "tenant_rate_limit_per_second": self.tenant_rate_limit,
                "max_body_bytes": self.max_body_bytes,
                "unauthorized": self.unauthorized,
                "rate_limited": self.rate_limited,
                "token_limited": self.token_limited,
                "tenant_limited": self.tenant_limited,
                "body_rejected": self.body_rejected,
            }
