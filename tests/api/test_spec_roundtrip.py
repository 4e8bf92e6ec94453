"""Property: every typed spec survives ``parse(spec.token()) == spec``.

The canonical tokens are what campaign cache keys hash, so a spec that
does not round-trip would silently alias two configurations (or raise
while a key is built).  Values come from each constructor's whole
accepted domain — unbounded ints, floats including inf and nan — and a
draw the constructor rejects is discarded.  ResiliencePolicy accepts so
small a share of those draws that its fields are drawn from their valid
domains instead.
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
from repro.simmpi.faults import FaultPlan, parse_fault_plan
from repro.simmpi.resilience import (
    BACKOFF_MODES,
    ESCALATIONS,
    ResiliencePolicy,
    parse_resilience_policy,
)

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
@given(nodes=INTS, cores_per_node=INTS)
def test_cluster_spec_round_trips(**fields):
    spec = _build(ClusterSpec, **fields)
    assert parse_cluster_spec(spec.token()) == spec


#: fault rates sum to at most 1, so three of them need extra weight on
#: small values to be accepted together often enough
RATES = FLOATS | st.floats(min_value=0.0, max_value=0.4)


@SETTINGS
@given(drop=RATES, corrupt=RATES, duplicate=RATES, seed=INTS,
       src=st.none() | INTS, dst=st.none() | INTS, tag=st.none() | INTS,
       corrupt_bit=INTS)
def test_fault_plan_round_trips(**fields):
    plan = _build(FaultPlan, **fields)
    assert parse_fault_plan(plan.token()) == plan


#: every valid policy field, by construction: most draws from the whole
#: numeric domains are invalid policies, and rejecting them starves the
#: search (Hypothesis' filter_too_much health check)
RETRIES = st.integers(min_value=0)
TIMEOUTS = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)
FACTORS = st.floats(min_value=1.0, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(max_retries=RETRIES, timeout=TIMEOUTS,
       backoff=st.sampled_from(BACKOFF_MODES),
       escalation=st.sampled_from(ESCALATIONS), backoff_factor=FACTORS,
       long_retries=st.booleans(), long_factor=st.booleans())
def test_resilience_policy_round_trips(long_retries, long_factor, **fields):
    policy = ResiliencePolicy(**fields)
    token = policy.token()
    # each alias spelling parses to the same field
    if long_retries:
        token = token.replace("retries=", "max_retries=")
    if long_factor:
        token = token.replace("factor=", "backoff_factor=")
    assert parse_resilience_policy(token) == policy
