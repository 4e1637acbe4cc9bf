"""Generate the v1 API reference (``docs/api.md``) from the registry.

The reference is *derived*, never hand-edited: every table is rendered
from the same objects the server dispatches on — the route table
(:data:`repro.api.routes.ROUTES`), the request/response dataclasses in
:mod:`repro.api.protocol`, and the error registry in
:mod:`repro.api.errors`.  That makes documentation drift structurally
impossible: a freshness test regenerates the markdown and asserts it
matches the committed file, so adding an endpoint or an error code
without regenerating fails CI.

Regenerate with::

    PYTHONPATH=src python -m repro.api.docs

or verify without writing (what CI does)::

    PYTHONPATH=src python -m repro.api.docs --check
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

from repro.api.errors import API_VERSION, ERROR_DESCRIPTIONS, ERROR_STATUS
from repro.api.routes import ROUTES, Route

__all__ = ["generate_markdown", "main"]

_HEADER = f"""# {API_VERSION} query API reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: PYTHONPATH=src python -m repro.api.docs -->

Every payload carries ``"api_version": "{API_VERSION}"``.  The wire contract is
**append-only** within a version: new response fields may appear (old
clients ignore them), existing fields never change meaning or vanish.
Unary endpoints take one JSON body and return one JSON body; stream
endpoints return NDJSON — one JSON object per line, terminated by a
checksummed trailer line.

Errors from any endpoint share one envelope::

    {{"api_version": "{API_VERSION}",
     "error": {{"code": "...", "message": "...", "details": {{...}}}}}}

``code`` and ``details`` are stable and machine-branchable; ``message``
is for humans and may change between releases.

Two HTTP facades serve this registry — the threaded server
(``python -m repro.api.http``) and the asyncio loop group
(``python -m repro.api.aio``).  Both dispatch through the same route
table and admission gate, so every endpoint, status code, and error
payload below is transport-independent; see ``docs/operations.md`` for
choosing and sizing a facade.
"""


def _doc(cls: type) -> str:
    """A message class's docstring as markdown: Sphinx cross-reference
    roles (``:class:`~x.Y` ``) become plain code spans."""
    doc = inspect.cleandoc(cls.__doc__ or "")
    return re.sub(r":[a-z]+:`~?([^`]+)`", r"`\1`", doc)


def _default_repr(field: dataclasses.Field) -> str:
    if field.default is not dataclasses.MISSING:
        return f"`{field.default!r}`"
    if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f"`{field.default_factory.__name__}()`"  # type: ignore[misc]
    return "*required*"


def _type_repr(field: dataclasses.Field) -> str:
    # `from __future__ import annotations` keeps these as source strings
    t = field.type
    return t if isinstance(t, str) else getattr(t, "__name__", str(t))


def _fields_table(cls: type) -> list[str]:
    lines = [
        "| field | type | default |",
        "| --- | --- | --- |",
    ]
    for field in dataclasses.fields(cls):
        lines.append(
            f"| `{field.name}` | `{_type_repr(field)}` | {_default_repr(field)} |"
        )
    return lines


def _route_section(route: Route) -> list[str]:
    lines = [f"### `{route.method} {route.path}`", ""]
    if route.summary:
        lines += [route.summary, ""]
    meta = [f"kind: **{route.kind}**"]
    if route.raw_formats:
        formats = ", ".join(f"`?format={f}`" for f in route.raw_formats)
        meta.append(f"raw formats: {formats}")
    lines += ["; ".join(meta), ""]

    if route.request_cls is None:
        lines += ["**Request:** no body.", ""]
    else:
        cls = route.request_cls
        lines += [f"**Request** — `{cls.__name__}`: {_doc(cls)}", ""]
        lines += _fields_table(cls) + [""]

    responses = route.response_cls
    if not isinstance(responses, tuple):
        responses = (responses,) if responses is not None else ()
    for i, cls in enumerate(responses):
        label = "**Response**" if len(responses) == 1 else (
            f"**Stream line {i + 1}**"
        )
        lines += [f"{label} — `{cls.__name__}`: {_doc(cls)}", ""]
        lines += _fields_table(cls) + [""]
    return lines


def generate_markdown() -> str:
    """Render the full reference; pure function of the registries."""
    lines: list[str] = [_HEADER, "## Endpoints", ""]
    lines += [
        "| endpoint | method | kind | summary |",
        "| --- | --- | --- | --- |",
    ]
    for route in ROUTES:
        lines.append(
            f"| [`{route.path}`](#{_anchor(route)}) | {route.method} "
            f"| {route.kind} | {route.summary} |"
        )
    lines.append("")
    for route in ROUTES:
        lines += _route_section(route)

    lines += ["## Error codes", ""]
    lines += [
        "| code | HTTP status | meaning |",
        "| --- | --- | --- |",
    ]
    for code, status in ERROR_STATUS.items():
        lines.append(f"| `{code}` | {status} | {ERROR_DESCRIPTIONS[code]} |")
    lines.append("")
    return "\n".join(lines)


def _anchor(route: Route) -> str:
    """GitHub-style anchor for a `### `METHOD /v1/name`` heading."""
    return (
        (route.method + " " + route.path)
        .lower()
        .replace("/", "")
        .replace(" ", "-")
    )


def default_output() -> Path:
    """``docs/api.md`` at the repository root (two levels above this file)."""
    return Path(__file__).resolve().parents[3] / "docs" / "api.md"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.docs",
        description="Regenerate (or verify) docs/api.md from the route table.",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="target file (default: <repo>/docs/api.md)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify the committed file matches the registry; write nothing",
    )
    args = parser.parse_args(argv)
    target = args.output if args.output is not None else default_output()
    rendered = generate_markdown()
    if args.check:
        current = target.read_text() if target.exists() else None
        if current != rendered:
            print(
                f"{target} is stale — regenerate with "
                "`PYTHONPATH=src python -m repro.api.docs`"
            )
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(rendered)
    print(f"wrote {target} ({len(rendered.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
