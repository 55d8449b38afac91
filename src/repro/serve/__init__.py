"""``repro serve``: an async atom query service over the on-disk store.

The first read-traffic subsystem (ROADMAP item 2): a long-running,
dependency-free HTTP/JSON server that answers per-prefix, per-atom and
aggregate queries from a reopened
:class:`~repro.store.reader.AtomStore` — the serve-measurements-at-
scale shape of bgproutes.io, built on the store's millisecond reopen.

* :class:`AtomQueryService` (:mod:`repro.serve.service`) — the
  transport-free query core, uncached payload builders: per-prefix
  stability histories (built once per prefix, memoised in a bounded
  LRU), churn timelines, split/merge series;
* :class:`ResponseCache` (:mod:`repro.serve.cache`) — bounded LRU of
  finished responses (body bytes and ETag) keyed by store version,
  request path and ``snapshot`` parameter;
* :class:`AtomServer` (:mod:`repro.serve.http`) — the
  ``asyncio.start_server`` transport: response caching, keep-alive,
  snapshot-version ETags / 304 revalidation, graceful shutdown;
* :class:`ServeApp` / :func:`serve_in_thread`
  (:mod:`repro.serve.app`) — lifecycle glue for the CLI, the tests and
  the load benchmark.

Endpoints and semantics are documented in ``docs/serving.md``; the
load benchmark emits ``benchmarks/output/BENCH_serve.json``.
"""

from repro.serve.app import ServeApp, ServerHandle, serve_in_thread
from repro.serve.cache import ResponseCache
from repro.serve.http import AtomServer, encode_body, etag_for
from repro.serve.service import AtomQueryService, QueryError

__all__ = [
    "AtomQueryService",
    "AtomServer",
    "QueryError",
    "ResponseCache",
    "ServeApp",
    "ServerHandle",
    "encode_body",
    "etag_for",
    "serve_in_thread",
]
