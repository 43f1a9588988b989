"""Aggregate functions: taxonomy, partial-aggregate protocol, built-ins."""

from .base import AggregateFunction, Components, Taxonomy
from .builtin import Avg, Count, Max, Median, Min, Quantile, Stdev, Sum
from .extra import CountDistinct, GeometricMean, Range, SumOfSquares
from .registry import (
    AVG,
    COUNT_DISTINCT,
    GEOMEAN,
    RANGE,
    SUMSQ,
    COUNT,
    MAX,
    MEDIAN,
    MIN,
    STDEV,
    SUM,
    get_aggregate,
    known_aggregates,
    register_aggregate,
)

__all__ = [
    "AVG",
    "COUNT_DISTINCT",
    "CountDistinct",
    "GEOMEAN",
    "GeometricMean",
    "RANGE",
    "Range",
    "SUMSQ",
    "SumOfSquares",
    "AggregateFunction",
    "Avg",
    "COUNT",
    "Components",
    "Count",
    "MAX",
    "MEDIAN",
    "MIN",
    "Max",
    "Median",
    "Min",
    "Quantile",
    "STDEV",
    "SUM",
    "Stdev",
    "Sum",
    "Taxonomy",
    "get_aggregate",
    "known_aggregates",
    "register_aggregate",
]
