"""The performance engine: parallel fan-out, scenario cache, perf artifacts.

:func:`map_streamed` is the one process-pool primitive; the stages that
fan out call it from the modules that own their data (ISP simulations,
CDN collection, store shard kernels, fused per-AS analysis).  See
``docs/architecture.md`` ("Performance engine") for the determinism
contract and the ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` environment
knobs.
"""

from repro.perf.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    ScenarioCache,
    code_fingerprint,
    get_scenario_cache,
    resolve_cache_flag,
)
from repro.perf.parallel import (
    WORKERS_ENV,
    effective_workers,
    map_streamed,
    resolve_workers,
)
from repro.perf.profiling import PROFILE_DIR_ENV, PROFILE_ENV, maybe_profile
from repro.perf.timing import (
    DEFAULT_BASELINE_PATH,
    RssSampler,
    current_rss_bytes,
    read_baseline,
    write_baseline,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "DEFAULT_BASELINE_PATH",
    "PROFILE_DIR_ENV",
    "PROFILE_ENV",
    "RssSampler",
    "ScenarioCache",
    "WORKERS_ENV",
    "code_fingerprint",
    "current_rss_bytes",
    "effective_workers",
    "get_scenario_cache",
    "map_streamed",
    "maybe_profile",
    "read_baseline",
    "resolve_cache_flag",
    "resolve_workers",
    "write_baseline",
]
