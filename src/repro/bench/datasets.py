"""Dataset size presets (paper Tables IV and V), scaled for one machine.

The paper's single-node sizes are 0.5M-5M records (1-10 GB of JSON) in the
ratio 1 : 2.5 : 5 : 7.5 : 10.  We keep the ratios and scale the base count
down (every helper takes the XS record count; ``python -m repro.bench``
passes its ``--xs`` flag, ``pytest benchmarks/`` ``REPRO_BENCH_XS``) so a
full sweep finishes in seconds.  The Pandas memory budget is derived from
the XS frame footprint such that — exactly as in the paper — every
expression completes on XS and S while M, L, and XL fail with an
out-of-memory error at DataFrame creation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eager.memory import estimate_value_bytes
from repro.wisconsin import WisconsinGenerator

#: Size ratios from Table IV (records relative to XS).
SINGLE_NODE_RATIOS = {"XS": 1.0, "S": 2.5, "M": 5.0, "L": 7.5, "XL": 10.0}

#: Pandas budget in units of the XS frame footprint.  Chosen so the worst
#: S-size expression (12: two frames plus a join result) fits, while the
#: M-size creation peak (5x frame + 1.5x parse buffer = 12.5x) does not.
PANDAS_BUDGET_XS_MULTIPLE = 11.5


@dataclass(frozen=True)
class SizeSpec:
    """One dataset size preset."""

    name: str
    num_records: int


def single_node_sizes(xs_records: int) -> list[SizeSpec]:
    """The XS-XL presets of Table IV."""
    return [
        SizeSpec(name, int(xs_records * ratio))
        for name, ratio in SINGLE_NODE_RATIOS.items()
    ]


def multi_node_speedup_records(xs_records: int) -> int:
    """Speedup runs use the fixed XL dataset on 1-4 nodes (Table V)."""
    return int(xs_records * SINGLE_NODE_RATIOS["XL"])


def multi_node_scaleup_sizes(xs_records: int) -> dict[int, int]:
    """Scaleup runs grow data with the cluster: XL x nodes (Table V)."""
    base = multi_node_speedup_records(xs_records)
    return {nodes: base * nodes for nodes in (1, 2, 3, 4)}


def estimated_frame_bytes(num_records: int) -> int:
    """Estimated eager-frame footprint of a Wisconsin dataset.

    Profiles a small generated sample and scales linearly — the generator's
    records are homogeneous, so this is accurate to within the string-width
    jitter of the key encodings.
    """
    sample_size = min(num_records, 64)
    generator = WisconsinGenerator(max(sample_size, 2))
    sample = list(generator.generate())[:sample_size]
    per_record = sum(
        8 + estimate_value_bytes(value)  # value + column-list pointer slot
        for record in sample
        for value in record.values()
    ) / len(sample)
    return int(per_record * num_records)


def pandas_memory_budget(xs_records: int) -> int:
    """The benchmark's Pandas memory budget (see module docstring)."""
    return int(PANDAS_BUDGET_XS_MULTIPLE * estimated_frame_bytes(xs_records))
