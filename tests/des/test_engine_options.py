"""EngineOptions and parse_engine_options: the typed runtime facade.

Same grammar discipline as the other ``parse_*`` spec parsers
(tests/api/test_parse_specs.py): malformed tokens, duplicates, and
unknown keys/runtimes raise :class:`ValueError` naming the valid
alternatives, and the whole surface is re-exported from
:mod:`repro.api`.
"""

import pytest

import repro.api as api
from repro.defaults import current_defaults, job_defaults
from repro.des.options import (
    DEFAULT_MAX_RANKS,
    EngineOptions,
    parse_engine_options,
    resolve_engine_options,
)
from repro.des.process import RUNTIMES


def test_api_reexports_the_engine_surface():
    assert api.EngineOptions is EngineOptions
    assert api.parse_engine_options is parse_engine_options


# ------------------------------------------------------------ EngineOptions

def test_defaults():
    opts = EngineOptions()
    assert (opts.runtime, opts.max_ranks, opts.handoff_check) == (
        "auto", DEFAULT_MAX_RANKS, False
    )


def test_unknown_runtime_names_valid_ones():
    with pytest.raises(ValueError) as err:
        EngineOptions(runtime="fibers")
    for runtime in RUNTIMES:
        assert runtime in str(err.value)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "8"])
def test_max_ranks_must_be_positive_int(bad):
    with pytest.raises(ValueError):
        EngineOptions(max_ranks=bad)


def test_token_is_canonical_and_round_trips():
    opts = EngineOptions(runtime="coroutines", max_ranks=128, handoff_check=True)
    token = opts.token()
    assert token == "coroutines:max_ranks=128,handoff_check=on"
    assert parse_engine_options(token) == opts


# ----------------------------------------------------- parse_engine_options

def test_parse_round_trip():
    opts = parse_engine_options("coroutines:max_ranks=4096")
    assert (opts.runtime, opts.max_ranks) == ("coroutines", 4096)


def test_parse_bare_runtime():
    assert parse_engine_options("threads") == EngineOptions(runtime="threads")


def test_parse_unknown_runtime_names_valid_ones():
    with pytest.raises(ValueError) as err:
        parse_engine_options("greenlets")
    for runtime in RUNTIMES:
        assert runtime in str(err.value)


def test_parse_unknown_key_names_valid_ones():
    with pytest.raises(ValueError) as err:
        parse_engine_options("auto:stack_size=8")
    assert "max_ranks" in str(err.value)
    assert "handoff_check" in str(err.value)


def test_parse_duplicate_key_raises():
    with pytest.raises(ValueError, match="duplicate"):
        parse_engine_options("auto:max_ranks=8,max_ranks=16")


def test_parse_malformed_pair_raises():
    with pytest.raises(ValueError, match="key=value"):
        parse_engine_options("auto:max_ranks")


def test_parse_bad_int_and_bad_bool():
    with pytest.raises(ValueError, match="integer"):
        parse_engine_options("auto:max_ranks=many")
    with pytest.raises(ValueError, match="on/off"):
        parse_engine_options("auto:handoff_check=maybe")


# -------------------------------------------------- defaults and resolution

def test_default_engine_options_set_and_restore():
    ours = EngineOptions(runtime="coroutines")
    with job_defaults(engine=ours):
        assert current_defaults().engine is ours
        assert resolve_engine_options(None) is ours
    assert current_defaults().engine is None
    assert resolve_engine_options(None) == EngineOptions()


def test_resolve_coerces_strings_and_rejects_junk():
    assert resolve_engine_options("threads").runtime == "threads"
    opts = EngineOptions(runtime="coroutines")
    assert resolve_engine_options(opts) is opts
    with pytest.raises(TypeError):
        resolve_engine_options(42)


def test_set_default_rejects_non_options():
    with pytest.raises(TypeError):
        with job_defaults(engine="coroutines"):
            pass


# ------------------------------------------------------ engine= on run_job

def test_run_options_coerces_engine_spec_string():
    # the spec string is parsed and applied: its rank ceiling bites
    with pytest.raises(ValueError, match="max_ranks=1"):
        api.run_job(_two_rank_noop, nranks=2, engine="coroutines:max_ranks=1")
    ok = api.run_job(_two_rank_noop, nranks=2, engine="coroutines:max_ranks=2")
    assert ok.duration >= 0.0


def test_run_options_rejects_non_engine_values():
    with pytest.raises(TypeError, match="engine"):
        api.run_job(_two_rank_noop, nranks=2, engine=8)


def _two_rank_noop(ctx):
    yield from ctx.comm.co_barrier()
