"""Command-line entry point: ``python -m repro.experiments``.

Commands:

- ``list`` — show every registered experiment with its paper reference
  and title;
- ``run <selection>`` — regenerate the selected artifacts serially and
  print them; the selection grammar is shared with ``campaign``
  (``all`` or explicit ids).  ``run all`` is ``campaign -j 1
  --no-cache`` that writes nothing unless ``--output DIR`` is given;
- ``campaign <selection>`` — run a selection across ``-j`` worker
  processes with the content-addressed result cache, live per-cell
  progress, artifact exports, and a manifest; re-running it resumes
  an interrupted campaign from the cache;
- ``trace`` — capture a structured event trace of a canonical workload
  (export as JSONL or a ``chrome://tracing`` file) or regenerate the
  golden-trace fixture with ``--write-goldens``;
- ``encdec-measured`` — run the *real* AES-GCM throughput sweep on this
  host (OpenSSL backend via `cryptography` if present) for an honest
  hardware datapoint next to Fig. 2.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import get_experiment, list_experiments, select


def _spec_flags(args, *flags: str):
    """Parse the spec-valued *flags* of *args*, in order (an absent flag
    gives None).  Returns the values, or None after printing ``bad
    --FLAG spec: ...`` for the first malformed one (the command exits 2).
    """
    from repro import api

    parsers = {
        "crypto": api.parse_crypto_plan,
        "runtime": api.parse_engine_options,
        "network": api.parse_network_spec,
        "faults": api.parse_fault_plan,
        "resilience": api.parse_resilience_policy,
    }
    values = []
    for flag in flags:
        text = getattr(args, flag)
        try:
            values.append(None if text is None else parsers[flag](text))
        except (KeyError, ValueError) as exc:
            label = ("faults/--resilience" if flag in ("faults", "resilience")
                     else flag)
            # args[0]: a KeyError's str() would quote its message
            print(f"bad --{label} spec: {exc.args[0]}", file=sys.stderr)
            return None
    return values


_RUNTIME_HELP = (
    "rank runtime for every simulated job, e.g. 'coroutines', "
    "'threads:handoff_check=on', 'coroutines:max_ranks=4096' "
    "(see repro.des.options.parse_engine_options)"
)


def _cmd_list(_args) -> int:
    exps = list_experiments()
    width = max(len(exp.id) for exp in exps)
    print(f"{'id':{width}s} {'paper':11s} title")
    for exp in exps:
        print(f"{exp.id:{width}s} {exp.paper_ref:11s} {exp.title}")
    return 0


def _selection(args):
    """The selection and spec flags ``run`` and ``campaign`` share:
    ``(experiments, crypto, engine)``, or None after printing a
    one-line usage error (the command exits 2)."""
    try:
        exps = select(args.ids)
    except ValueError as exc:  # an unknown id
        print(exc, file=sys.stderr)
        return None
    if not exps:
        print("no experiments selected", file=sys.stderr)
        return None
    specs = _spec_flags(args, "crypto", "runtime")
    return None if specs is None else (exps, *specs)


def _cmd_run(args) -> int:
    """Serial, uncached execution — ``campaign -j 1 --no-cache`` with
    the classic rendered-artifact output; writes only with --output."""
    from repro.experiments.campaign import run_campaign

    chosen = _selection(args)
    if chosen is None:
        return 2
    exps, crypto, engine = chosen
    as_json = args.json
    json_docs: list[dict] = []

    def on_start(exp, _index, _total) -> None:
        if not as_json:
            print(f"--- running {exp.id} ({exp.paper_ref}) ---")

    def on_cell(cell, _done, _total) -> None:
        if not cell.ok:
            print(f"{cell.experiment_id} FAILED: {cell.error}", file=sys.stderr)
        elif as_json:
            json_docs.append(cell.artifact)
        else:
            print(cell.text)
            print(f"[{cell.experiment_id} took {cell.seconds:.1f}s]\n")

    result = run_campaign(
        exps,
        jobs=1,
        cache=False,
        results_dir=args.output,
        sanitize=args.sanitize,
        crypto=crypto,
        engine=engine,
        on_start=on_start,
        on_cell=on_cell,
    )
    if as_json:
        import json

        print(json.dumps(json_docs if len(json_docs) != 1 else json_docs[0],
                         indent=2))
    if result.failed:
        print(
            f"{len(result.failed)} of {len(exps)} experiments failed: "
            + ", ".join(result.failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_campaign(args) -> int:
    from repro.experiments.campaign import run_campaign

    chosen = _selection(args)
    if chosen is None:
        return 2
    exps, crypto, engine = chosen
    if args.jobs < 1:
        print(f"-j must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.no_cache and args.expect_all_cached:
        print("--expect-all-cached needs the cache; drop --no-cache",
              file=sys.stderr)
        return 2
    cache = not args.no_cache
    print(
        f"--- campaign: {len(exps)} cells, {args.jobs} worker(s), "
        f"cache {'on' if cache else 'off'}"
        + (", sanitize" if args.sanitize else "")
        + f" -> {args.output} ---"
    )

    def on_cell(cell, done, total) -> None:
        if cell.cached:
            provenance = "cache hit"
        elif cell.worker >= 0:
            provenance = f"worker {cell.worker}"
        else:
            provenance = "?"
        status = "ok    " if cell.ok else "FAILED"
        line = (
            f"[{done:{len(str(total))}d}/{total}] {cell.experiment_id:12s} "
            f"{status} {cell.seconds:7.2f}s  {provenance}"
        )
        if not cell.ok:
            line += f"  {cell.error}"
        print(line, flush=True)

    result = run_campaign(
        exps,
        jobs=args.jobs,
        cache=cache,
        results_dir=args.output,
        sanitize=args.sanitize,
        crypto=crypto,
        engine=engine,
        on_cell=on_cell,
    )
    ok = len(result.cells) - len(result.failed)
    print(
        f"campaign: {ok} ok, {len(result.failed)} failed  "
        f"({result.hits} cache hit(s), {result.misses} executed)  "
        f"in {result.duration:.1f}s"
    )
    if result.manifest_path:
        print(f"manifest: {result.manifest_path}")
    if result.failed:
        print("failed: " + ", ".join(result.failed), file=sys.stderr)
        return 1
    if args.expect_all_cached and result.misses:
        missed = [c.experiment_id for c in result.cells if not c.cached]
        print(
            f"--expect-all-cached: {len(missed)} cell(s) executed a "
            "runner instead of hitting the cache: " + ", ".join(missed),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments import bench

    mode = "smoke" if args.smoke else "full"
    baseline = None
    if args.baseline:
        try:
            baseline = bench.load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    if args.check_tracing:
        if baseline is None:
            print("--check-tracing needs --baseline", file=sys.stderr)
            return 2
        ok, report = bench.check_tracing_overhead(baseline, mode=mode)
        print(report)
        return 0 if ok else 1
    doc = bench.run_core_benches(mode)
    print(bench.render(doc, baseline))
    if args.output:
        bench.write_doc(doc, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_nas(args) -> int:
    from repro.defaults import job_defaults
    from repro.encmpi.plan import refuse_modeled_corruption
    from repro.util.stats import overhead_percent
    from repro.workloads.nas import NAS_BENCHMARKS, run_nas

    specs = _spec_flags(args, "faults", "resilience", "crypto", "runtime",
                        "network")
    if specs is None:
        return 2
    faults, policy, crypto, engine, fabric = specs
    try:
        refuse_modeled_corruption(args.library, faults)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    net_label = fabric.token()
    perturbed = dict(faults=faults, resilience=policy, crypto=crypto)
    names = NAS_BENCHMARKS() if args.benchmark == "all" else [args.benchmark]
    # --runtime applies to every job of the command (baseline and
    # encrypted alike), exactly like the campaign's engine default
    with job_defaults(engine=engine):
        for name in names:
            # the baseline column stays the calibrated clean-fabric number;
            # faults/resilience perturb the runs under comparison
            base = run_nas(name, network=fabric)
            line = f"{name.upper():4s} {net_label}: baseline {base.total_seconds:7.2f}s"
            if args.library:
                enc = run_nas(name, network=fabric, library=args.library,
                              **perturbed)
                line += (
                    f"  {args.library} {enc.total_seconds:7.2f}s "
                    f"(+{overhead_percent(enc.total_seconds, base.total_seconds):.2f}%)"
                )
            elif faults is not None or policy is not None:
                lossy = run_nas(name, network=fabric, **perturbed)
                line += (
                    f"  faulty {lossy.total_seconds:7.2f}s "
                    f"(+{overhead_percent(lossy.total_seconds, base.total_seconds):.2f}%)"
                )
            line += f"  [comm {base.comm_seconds:.2f}s, compute {base.compute_seconds:.2f}s]"
            print(line)
    return 0


def _cmd_analyze(args) -> int:
    from repro.models.predict import crossover_size, explain_pingpong
    from repro.util.units import format_bytes, parse_size

    specs = _spec_flags(args, "network")
    if specs is None:
        return 2
    fabric = specs[0]
    # The decomposition is closed-form over the calibrated constants, so
    # only the base preset matters (noise options parse but don't bite).
    size = parse_size(args.size)
    breakdown = explain_pingpong(fabric.base, args.library, size)
    print(breakdown.render())
    cutoff = crossover_size(fabric.base, args.library)
    label = format_bytes(cutoff) if cutoff else "none — even 1B exceeds it"
    print(
        f"\nlargest size with <=10% predicted overhead on {fabric.base} "
        f"with {args.library}: {label}"
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments import goldens

    if args.write_goldens is not None:
        path = args.write_goldens or goldens.FIXTURE_PATH
        doc = goldens.write_fixture(path)
        for name, rec in doc["runs"].items():
            print(f"{name:14s} {rec['events']:5d} events  {rec['digest']}")
        print(f"wrote {path}")
        return 0
    if args.workload is None:
        print("choose a workload or pass --write-goldens", file=sys.stderr)
        return 2
    trace = goldens.run_golden(args.workload, backend=args.backend)
    print(trace.summary())
    print(trace.comm.render())
    if args.output:
        if args.format == "chrome":
            trace.write_chrome_trace(args.output)
        else:
            trace.write_jsonl(args.output)
        print(f"wrote {args.output} ({args.format})")
    return 0


def _cmd_predict(args) -> int:
    from repro.models.predict import predict
    from repro.util.units import format_rate, parse_size

    if args.size is None:
        print("give a message size (e.g. 2MB)", file=sys.stderr)
        return 2
    try:
        size = parse_size(args.size)
    except ValueError as exc:
        print(f"bad size: {exc}", file=sys.stderr)
        return 2
    specs = _spec_flags(args, "crypto", "faults", "resilience")
    if specs is None:
        return 2
    crypto, faults, policy = specs
    try:
        pred = predict(
            library=args.library, fabric=args.network, size=size,
            pairs=args.pairs, plan=crypto, faults=faults, resilience=policy,
        )
    except ValueError as exc:
        print(f"bad prediction query: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps({
            "fabric": args.network,
            "library": args.library,
            "size": size,
            "pairs": args.pairs,
            "latency_s": pred.latency,
            "goodput_Bps": pred.goodput,
            "per_pair_goodput_Bps": pred.per_pair_goodput,
            "family": pred.family,
        }, indent=2))
        return 0
    what = ("one-way latency" if args.pairs == 1
            else "per-message interval")
    print(
        f"{args.network} / {args.library or 'plain'} / {args.size} "
        f"/ pairs={args.pairs}"
    )
    print(f"  {what:20s} {pred.latency * 1e6:,.2f} us")
    print(
        f"  {'goodput':20s} {format_rate(pred.goodput)}"
        + (f"   (per pair {format_rate(pred.per_pair_goodput)})"
           if args.pairs > 1 else "")
    )
    print(f"  {'model family':20s} {pred.family}")
    return 0


def _cmd_encdec_measured(_args) -> int:
    from repro.crypto.aead import available_backends
    from repro.util.units import format_bytes, format_rate
    from repro.workloads.encdec import measured_encdec_curve

    print(f"backends available: {available_backends()}")
    print("measuring real AES-GCM-256 enc+dec throughput on this host...")
    results = measured_encdec_curve()
    print(f"{'size':>8s} {'enc-dec throughput':>22s} {'runs':>5s}")
    for size, stats in results.items():
        print(
            f"{format_bytes(size):>8s} {format_rate(stats.mean):>22s} {stats.n:>5d}"
        )
    print(
        "\n(the paper's Fig. 2 metric: enc+dec of s bytes takes "
        "s/throughput; compare shapes, not absolutes — hardware differs)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the paper's evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)
    run = sub.add_parser(
        "run",
        help="run experiments serially ('all' or experiment ids)",
    )
    run.add_argument("ids", nargs="+")
    run.add_argument(
        "--output",
        metavar="DIR",
        help="also write <id>.txt, structured <id>.json and the "
        "campaign.json manifest into DIR",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print structured JSON to stdout instead of rendered text",
    )
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the runtime sanitizer (repro.analysis.sanitize) in "
        "every simulated job: deadlock diagnosis, leaked-request "
        "tracking, nonce-reuse checks",
    )
    run.add_argument(
        "--crypto",
        default=None,
        metavar="PLAN",
        help="default crypto plan for every encrypted workload, e.g. "
        "'cryptmpi:chunk=256k,cores=3' or 'serial' "
        "(see repro.encmpi.plan.parse_crypto_plan)",
    )
    run.add_argument("--runtime", default=None, metavar="SPEC",
                     help=_RUNTIME_HELP)
    run.set_defaults(func=_cmd_run)
    campaign = sub.add_parser(
        "campaign",
        help="run a selection across N workers with the result cache "
        "(re-running resumes an interrupted campaign) and a manifest",
    )
    campaign.add_argument(
        "ids",
        nargs="*",
        default=["all"],
        help="'all' or experiment ids (default: all); same grammar as 'run'",
    )
    campaign.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: 1; outputs are byte-identical "
        "for any N)",
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="execute every cell even if a cached result exists",
    )
    campaign.add_argument(
        "--output",
        metavar="DIR",
        default="results",
        help="results tree: artifacts, campaign.json manifest, cache/ "
        "(default: results)",
    )
    campaign.add_argument(
        "--expect-all-cached",
        action="store_true",
        help="exit 1 if any cell executed a runner (CI warm-cache check)",
    )
    campaign.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the runtime sanitizer in every executed cell (cache "
        "hits skip it; a fresh --output or --no-cache covers every cell)",
    )
    campaign.add_argument(
        "--crypto",
        default=None,
        metavar="PLAN",
        help="default crypto plan for every encrypted workload, e.g. "
        "'cryptmpi:chunk=256k,cores=3'; part of the cell cache key",
    )
    campaign.add_argument("--runtime", default=None, metavar="SPEC",
                          help=_RUNTIME_HELP + "; part of the cell cache key")
    campaign.set_defaults(func=_cmd_campaign)
    bench = sub.add_parser(
        "bench", help="time the substrate's hot paths (BENCH_core.json)"
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-not-minutes variant; skips the fig6 experiment",
    )
    bench.add_argument(
        "--output",
        metavar="PATH",
        help="write the JSON document to PATH (e.g. BENCH_core.json)",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare against a previously written JSON document",
    )
    bench.add_argument(
        "--check-tracing",
        action="store_true",
        help="assert disabled tracing costs <2%% vs --baseline on the "
        "simulator hot paths (exit 1 on regression)",
    )
    bench.set_defaults(func=_cmd_bench)
    nas = sub.add_parser("nas", help="run one NAS proxy at paper scale")
    nas.add_argument("benchmark", help="bt|cg|ep|ft|is|lu|mg|sp|all")
    nas.add_argument("--network", default="ethernet",
                     help="fabric preset or spec, e.g. infiniband or "
                     "'wan:jitter=10%%,loss=2%%,seed=7'")
    nas.add_argument("--library", default=None,
                     help="boringssl|openssl|libsodium|cryptopp (default: baseline only)")
    nas.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="seeded fault plan for the comm simulation, e.g. "
        "'drop=0.05,corrupt=0.02,seed=7' (see repro.simmpi.faults)",
    )
    nas.add_argument(
        "--resilience",
        default=None,
        metavar="SPEC",
        help="ack/retransmit policy, e.g. 'retries=6,timeout=0.001,"
        "backoff=exponential,escalation=fail' (see repro.simmpi.resilience)",
    )
    nas.add_argument(
        "--crypto",
        default=None,
        metavar="PLAN",
        help="crypto plan for the encrypted run, e.g. "
        "'cryptmpi:chunk=256k,cores=3' (see repro.encmpi.plan)",
    )
    nas.add_argument("--runtime", default=None, metavar="SPEC",
                     help=_RUNTIME_HELP)
    nas.set_defaults(func=_cmd_nas)
    analyze = sub.add_parser(
        "analyze", help="decompose a ping-pong overhead (the §V-A arithmetic)"
    )
    analyze.add_argument("size", help="message size, e.g. 2MB")
    analyze.add_argument("--network", default="ethernet",
                         help="fabric preset (noise options are accepted "
                         "but ignored: the decomposition is closed-form)")
    analyze.add_argument("--library", default="boringssl")
    analyze.set_defaults(func=_cmd_analyze)
    trace = sub.add_parser(
        "trace", help="capture a structured event trace of a canonical run"
    )
    trace.add_argument(
        "workload",
        nargs="?",
        choices=["pingpong", "bcast", "enc_multipair"],
        help="which golden workload to trace",
    )
    trace.add_argument(
        "--backend",
        default="auto",
        help="AEAD byte-work backend for encrypted runs (auto|pure|chacha|openssl)",
    )
    trace.add_argument(
        "--format",
        default="jsonl",
        choices=["jsonl", "chrome"],
        help="export format: JSONL events or a chrome://tracing JSON file",
    )
    trace.add_argument("--output", metavar="PATH", help="write the trace to PATH")
    trace.add_argument(
        "--write-goldens",
        nargs="?",
        const="",
        metavar="PATH",
        help="regenerate the golden-trace fixture (default: "
        "tests/goldens/golden_traces.json) instead of tracing one workload",
    )
    trace.set_defaults(func=_cmd_trace)
    predict = sub.add_parser(
        "predict",
        help="answer one cell analytically (no simulation; see the "
        "'predict' experiment for the validation of these numbers)",
    )
    predict.add_argument(
        "size",
        nargs="?",
        help="message size, e.g. 2MB",
    )
    predict.add_argument("--network", default="ethernet",
                         choices=["ethernet", "infiniband"])
    predict.add_argument(
        "--library",
        default=None,
        help="boringssl|openssl|libsodium|cryptopp (default: plaintext "
        "baseline)",
    )
    predict.add_argument(
        "--pairs",
        type=int,
        default=1,
        help="1 predicts the ping-pong one-way time; 2..8 the multipair "
        "streaming goodput",
    )
    predict.add_argument(
        "--crypto",
        default=None,
        metavar="PLAN",
        help="crypto plan, e.g. 'cryptmpi:chunk=256k,cores=3' "
        "(see repro.encmpi.plan; needs --library)",
    )
    predict.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="seeded fault plan, e.g. 'drop=0.05,seed=7'; pair with "
        "--resilience (see repro.simmpi.faults)",
    )
    predict.add_argument(
        "--resilience",
        default=None,
        metavar="SPEC",
        help="ack/retransmit policy, e.g. 'retries=6,timeout=0.001,"
        "backoff=exponential' (see repro.simmpi.resilience)",
    )
    predict.add_argument("--json", action="store_true",
                         help="emit the prediction as JSON")
    predict.set_defaults(func=_cmd_predict)
    sub.add_parser(
        "encdec-measured", help="measure real AES-GCM throughput locally"
    ).set_defaults(func=_cmd_encdec_measured)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
