"""Error-path contracts of the three CLI spec parsers.

``parse_crypto_plan``, ``parse_fault_plan`` and
``parse_resilience_policy`` share a grammar discipline: malformed
tokens, duplicate/conflicting keys, and unknown keys or modes all raise
:class:`ValueError`, and every "unknown X" message *names the valid
alternatives* so the CLI error is self-repairing.  All three are also
re-exported from :mod:`repro.api` for hosts that build specs
programmatically."""

import pytest

import repro.api as api
from repro.des.options import parse_engine_options
from repro.encmpi.plan import CRYPTO_PLAN_MODES, CryptoPlan, parse_crypto_plan
from repro.experiments.stats import parse_stats_spec
from repro.models.cryptolib import PROFILED_LIBRARIES
from repro.models.network import parse_network_spec
from repro.simmpi.faults import parse_fault_plan
from repro.simmpi.resilience import parse_resilience_policy


def test_api_reexports_the_parsers():
    assert api.parse_crypto_plan is parse_crypto_plan
    assert api.parse_fault_plan is parse_fault_plan
    assert api.parse_resilience_policy is parse_resilience_policy


# ------------------------------------------------------- parse_crypto_plan

def test_crypto_plan_round_trip():
    plan = parse_crypto_plan("cryptmpi:chunk=256k,cores=3,library=openssl")
    assert (plan.mode, plan.chunk_bytes, plan.helper_cores, plan.library) \
        == ("cryptmpi", 256 * 1024, 3, "openssl")
    # a digit-only size parses exactly, past float precision too
    huge = CryptoPlan(mode="cryptmpi", chunk_bytes=2**53 + 1)
    assert parse_crypto_plan(huge.token()) == huge


def test_crypto_plan_unknown_mode_names_valid_modes():
    with pytest.raises(ValueError) as err:
        parse_crypto_plan("gcm")
    for mode in CRYPTO_PLAN_MODES:
        assert mode in str(err.value)


def test_crypto_plan_malformed_option():
    with pytest.raises(ValueError, match="need key=value"):
        parse_crypto_plan("serial:chunk")


def test_crypto_plan_duplicate_key_conflicts():
    with pytest.raises(ValueError, match="duplicate crypto option"):
        parse_crypto_plan("cryptmpi:chunk=64k,chunk=256k")


def test_crypto_plan_unknown_key_names_valid_keys():
    with pytest.raises(ValueError) as err:
        parse_crypto_plan("cryptmpi:threads=4")
    msg = str(err.value)
    assert "unknown crypto option" in msg
    for key in ("chunk", "cores", "library", "bytework"):
        assert key in msg


def test_crypto_plan_unknown_library_names_profiled():
    with pytest.raises(ValueError) as err:
        parse_crypto_plan("serial:library=rustls")
    for lib in PROFILED_LIBRARIES:
        assert lib in str(err.value)


# -------------------------------------------------------- parse_fault_plan

def test_fault_plan_round_trip():
    plan = parse_fault_plan("drop=0.05,corrupt=0.02,seed=7")
    assert (plan.drop, plan.corrupt, plan.seed) == (0.05, 0.02, 7)


def test_fault_plan_malformed_option():
    with pytest.raises(ValueError, match="need key=value"):
        parse_fault_plan("drop")


def test_fault_plan_duplicate_key_conflicts():
    with pytest.raises(ValueError, match="duplicate fault option"):
        parse_fault_plan("drop=0.1,drop=0.2")


def test_fault_plan_unknown_key_names_valid_keys():
    with pytest.raises(ValueError) as err:
        parse_fault_plan("loss=0.1")
    msg = str(err.value)
    assert "unknown fault option" in msg
    for key in ("drop", "corrupt", "duplicate", "seed"):
        assert key in msg


def test_fault_plan_out_of_range_rate():
    with pytest.raises(ValueError):
        parse_fault_plan("drop=1.5")


# ------------------------------------------------- parse_resilience_policy

def test_resilience_round_trip():
    policy = parse_resilience_policy("retries=3,timeout=0.001,backoff=fixed")
    assert (policy.max_retries, policy.timeout, policy.backoff) \
        == (3, 0.001, "fixed")


def test_resilience_malformed_option():
    with pytest.raises(ValueError, match="need key=value"):
        parse_resilience_policy("retries")
    # non-finite values parse as floats but name the field they break
    for spec, field in (("timeout=nan", "timeout"), ("timeout=inf", "timeout"),
                        ("factor=nan", "backoff_factor"),
                        ("factor=inf", "backoff_factor")):
        with pytest.raises(ValueError, match=field):
            parse_resilience_policy(spec)


def test_resilience_alias_conflict():
    # retries and max_retries are the same knob; giving both must not
    # silently keep the last one
    with pytest.raises(ValueError, match="conflicting resilience option"):
        parse_resilience_policy("retries=2,max_retries=3")


def test_resilience_duplicate_key_conflicts():
    with pytest.raises(ValueError, match="conflicting resilience option"):
        parse_resilience_policy("timeout=0.001,timeout=0.002")


def test_resilience_unknown_key_names_valid_keys():
    with pytest.raises(ValueError) as err:
        parse_resilience_policy("attempts=3")
    msg = str(err.value)
    assert "unknown resilience option" in msg
    for key in ("retries", "timeout", "backoff", "escalation", "factor"):
        assert key in msg


def test_resilience_unknown_backoff_names_valid_modes():
    with pytest.raises(ValueError) as err:
        parse_resilience_policy("backoff=cubic")
    assert "exponential" in str(err.value)
    assert "fixed" in str(err.value)


# ------------------------------------------------- one error shape, six specs

MALFORMED_VALUES = [
    (parse_fault_plan, "drop=abc", "fault", "drop"),
    (parse_fault_plan, "seed=1.5", "fault", "seed"),
    (parse_resilience_policy, "retries=many", "resilience", "retries"),
    (parse_crypto_plan, "cryptmpi:cores=many", "crypto", "cores"),
    (parse_engine_options, "coroutines:max_ranks=many", "engine",
     "max_ranks"),
    (parse_stats_spec, "reps=x", "stats", "reps"),
    (parse_network_spec, "wan:seed=x", "network", "seed"),
]


@pytest.mark.parametrize("parse, spec, kind, key", MALFORMED_VALUES,
                         ids=[case[1] for case in MALFORMED_VALUES])
def test_malformed_value_names_the_spec_kind_and_key(parse, spec, kind, key):
    with pytest.raises(ValueError) as err:
        parse(spec)
    assert kind in str(err.value)
    assert key in str(err.value)
