"""The CryptoPlan facade: validation, the CLI string form, the
process-wide default, and how SecurityConfig reads the plan.

The frozen typed plan is the one spelling of the crypto discipline:
``SecurityConfig.crypto_mode`` reads the plan's bytework, the old
``crypto_mode=`` keyword is gone, and conflicting combinations are
errors, not silent precedence.
"""

import pytest

from repro.defaults import current_defaults, job_defaults
from repro.encmpi import CryptoPlan, SecurityConfig, parse_crypto_plan


def test_default_plan_is_the_papers_serial_discipline():
    plan = CryptoPlan()
    assert plan.mode == "serial"
    assert not plan.pipelined
    assert plan.bytework == "real"
    assert CryptoPlan(mode="cryptmpi").pipelined


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(mode="threaded"), "mode"),
        (dict(chunk_bytes=0), "chunk_bytes"),
        (dict(helper_cores=-1), "helper_cores"),
        (dict(bytework="emulated"), "bytework"),
        (dict(library="nss"), "library"),
    ],
)
def test_plan_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        CryptoPlan(**kwargs)


def test_plan_is_frozen():
    with pytest.raises(AttributeError):
        CryptoPlan().mode = "cryptmpi"


def test_parse_crypto_plan_string_form():
    plan = parse_crypto_plan("cryptmpi:chunk=256k,cores=3")
    assert plan == CryptoPlan(mode="cryptmpi", chunk_bytes=256 * 1024,
                              helper_cores=3)
    assert parse_crypto_plan("serial") == CryptoPlan()
    assert parse_crypto_plan("cryptmpi:cores=auto").helper_cores is None
    got = parse_crypto_plan("cryptmpi:library=openssl,bytework=modeled")
    assert (got.library, got.bytework) == ("openssl", "modeled")


def test_parse_round_trips_the_canonical_token():
    for plan in (
        CryptoPlan(),
        CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024, helper_cores=2,
                   library="libsodium", bytework="modeled"),
    ):
        assert parse_crypto_plan(plan.token()) == plan


@pytest.mark.parametrize(
    "spec, match",
    [
        ("turbo", "unknown crypto plan mode"),
        ("cryptmpi:chunk", "key=value"),
        ("serial:threads=4", "unknown crypto option"),
    ],
)
def test_parse_errors_name_the_valid_forms(spec, match):
    with pytest.raises(ValueError, match=match):
        parse_crypto_plan(spec)


def test_default_plan_overlays_geometry_only():
    default = parse_crypto_plan("cryptmpi:chunk=128k,cores=2,library=openssl")
    with job_defaults(crypto=default):
        cfg = SecurityConfig(library="cryptopp", crypto=None)
        # an explicit plan bypasses the process-wide default entirely
        pinned = SecurityConfig(crypto=CryptoPlan())
    # geometry follows the default; library/bytework stay the config's
    assert cfg.crypto.mode == "cryptmpi"
    assert cfg.crypto.chunk_bytes == 128 * 1024
    assert cfg.crypto.helper_cores == 2
    assert cfg.crypto.library == "cryptopp"
    assert cfg.crypto.bytework == "real"
    assert pinned.crypto == CryptoPlan()


def test_set_default_plan_returns_previous_and_typechecks():
    first = parse_crypto_plan("cryptmpi")
    with job_defaults(crypto=first) as outer:
        assert current_defaults().crypto == first
        with job_defaults(sanitize=True) as inner:
            assert inner.crypto == first  # unset keywords keep the outer value
        assert current_defaults() is outer
    assert current_defaults().crypto is None
    with pytest.raises(TypeError, match="CryptoPlan"):
        with job_defaults(crypto="cryptmpi"):
            pass
    assert current_defaults().crypto is None


def test_crypto_mode_reads_the_plans_bytework():
    cfg = SecurityConfig(crypto=CryptoPlan(library="openssl",
                                           bytework="modeled"))
    assert cfg.crypto_mode == "modeled"
    assert SecurityConfig().crypto_mode == "real"
    with pytest.raises(AttributeError):
        cfg.crypto_mode = "real"


def test_conflicting_bytework_spellings_are_an_error():
    # one spelling only: the removed keyword is rejected outright
    with pytest.raises(TypeError, match="crypto_mode"):
        SecurityConfig(crypto_mode="real",
                       crypto=CryptoPlan(bytework="modeled"))


def test_conflicting_libraries_are_an_error():
    with pytest.raises(ValueError, match="conflicting libraries"):
        SecurityConfig(library="openssl",
                       crypto=CryptoPlan(library="libsodium"))


def test_library_reconciliation_fills_the_defaulted_side():
    via_config = SecurityConfig(library="openssl", crypto=CryptoPlan())
    assert via_config.crypto.library == "openssl"
    assert via_config.library == "openssl"
    via_plan = SecurityConfig(crypto=CryptoPlan(library="openssl"))
    assert via_plan.library == "openssl"
    assert via_config == via_plan
