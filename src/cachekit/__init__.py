"""Coded caching with uncoded prefetching: exact-optimal schemes on real bit
arrays, tradeoff formulas, and converse bounds."""

from .combinatorics import (
    SubsetId,
    binomial,
    enumerate_subsets,
    lower_convex_envelope_many,
)
from .model import (
    Database,
    DemandStats,
    Placement,
    all_demands,
    demand_stats,
    enumerate_types,
    expected_distinct,
    load_placement,
    make_database,
    ne_weights,
    save_placement,
)
from .decentralized import (
    Broadcast,
    BroadcastMessage,
    DecodeError,
    delivered_rate,
    select_leaders,
)
from .centralized import (
    batch_placement,
    decode_user,
    encode_delivery,
    verify_message_cancellation,
)
from .rate_analysis import (
    SCHEMES,
    CacheProfile,
    RateCurve,
    converse_bound,
    dec_rate_for_distinct,
    delivery_rate_value,
    rate_curve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
