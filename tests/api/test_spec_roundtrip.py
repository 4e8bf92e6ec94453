"""Property: every typed spec survives ``parse(spec.token()) == spec``.

The canonical tokens are what campaign cache keys hash, so a spec that
does not round-trip would silently alias two configurations (or raise
while a key is built).  Values come from each constructor's whole
accepted domain — unbounded ints, floats including inf and nan — and a
draw the constructor rejects is discarded.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.des.options import EngineOptions, parse_engine_options
from repro.des.process import RUNTIMES
from repro.encmpi.plan import (
    BYTEWORK_MODES,
    CRYPTO_PLAN_MODES,
    CryptoPlan,
    parse_crypto_plan,
)
from repro.experiments.stats import StatsSpec, parse_stats_spec
from repro.models.cpu import ClusterSpec, parse_cluster_spec
from repro.models.cryptolib import PROFILED_LIBRARIES
from repro.models.network import FABRIC_PRESETS, FabricSpec, parse_network_spec

#: every int, plus extra weight on the positive ones and every float
#: (inf and nan included), plus extra weight on [0, 1], so that fields
#: with a bounded domain are not almost always rejected
INTS = st.integers() | st.integers(min_value=1)
FLOATS = st.floats() | st.floats(min_value=0.0, max_value=1.0)

SETTINGS = settings(max_examples=300, deadline=None)


def _build(cls, **fields):
    try:
        return cls(**fields)
    except (ValueError, TypeError):
        reject()


@SETTINGS
@given(library=st.sampled_from(PROFILED_LIBRARIES),
       mode=st.sampled_from(CRYPTO_PLAN_MODES),
       chunk_bytes=INTS, helper_cores=st.none() | INTS,
       bytework=st.sampled_from(BYTEWORK_MODES))
def test_crypto_plan_round_trips(**fields):
    plan = _build(CryptoPlan, **fields)
    assert parse_crypto_plan(plan.token()) == plan


@SETTINGS
@given(runtime=st.sampled_from(RUNTIMES), max_ranks=INTS,
       handoff_check=st.booleans())
def test_engine_options_round_trip(**fields):
    options = _build(EngineOptions, **fields)
    assert parse_engine_options(options.token()) == options


@SETTINGS
@given(base=st.sampled_from(FABRIC_PRESETS), jitter=FLOATS, wobble=FLOATS,
       loss=FLOATS, seed=INTS)
def test_fabric_spec_round_trips(**fields):
    spec = _build(FabricSpec, **fields)
    assert parse_network_spec(spec.token()) == spec


@SETTINGS
@given(reps=INTS, confidence=FLOATS, seed=INTS)
def test_stats_spec_round_trips(**fields):
    spec = _build(StatsSpec, **fields)
    assert parse_stats_spec(spec.token()) == spec


@SETTINGS
@given(nodes=INTS, cores_per_node=INTS,
       fabric=st.none() | st.sampled_from(FABRIC_PRESETS))
def test_cluster_spec_round_trips(**fields):
    spec = _build(ClusterSpec, **fields)
    assert parse_cluster_spec(spec.token()) == spec
