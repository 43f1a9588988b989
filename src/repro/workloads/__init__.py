"""Workload generation: window sets and event streams."""

from .debs import debs_like_stream
from .domains import (
    DOMAIN_STREAMS,
    domain_stream,
    flash_crowd_stream,
    iot_telemetry_stream,
    rtgs_payments_stream,
)
from .generators import (
    DEFAULT_MULTIPLIER,
    DEFAULT_SEED_RANGES,
    DEFAULT_SEED_SLIDES,
    RandomGen,
    SequentialGen,
)
from .rng import seeded_pyrandom, seeded_rng
from .streams import (
    constant_rate_stream,
    zipf_stream,
)

__all__ = [
    "DEFAULT_MULTIPLIER",
    "DEFAULT_SEED_RANGES",
    "DEFAULT_SEED_SLIDES",
    "DOMAIN_STREAMS",
    "RandomGen",
    "SequentialGen",
    "constant_rate_stream",
    "debs_like_stream",
    "domain_stream",
    "flash_crowd_stream",
    "iot_telemetry_stream",
    "rtgs_payments_stream",
    "seeded_pyrandom",
    "seeded_rng",
    "zipf_stream",
]
