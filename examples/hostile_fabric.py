#!/usr/bin/env python3
"""Hostile fabrics end to end: FabricSpec, seeded noise, stats CIs.

Runs the encrypted ping-pong on a WAN with jitter, wobble, and loss —
the loss recovered by the reliable-delivery layer — and reports every
number as `median ± CI` from seeded repetitions.  Everything is
virtual-time and seeded: run it twice, get the same bytes.

Run:  python examples/hostile_fabric.py
"""

from repro import api

TAG_PING = 5
MSG = b"\x42" * 1024
ITERS = 8


def pingpong(ctx):
    # verify-sizes: 2  (a strictly two-rank exchange)
    enc = ctx.enc
    if ctx.rank == 0:
        t0 = ctx.now
        for _ in range(ITERS):
            enc.send(MSG, 1, tag=TAG_PING)
            enc.recv(1, TAG_PING)
        return (ctx.now - t0) / (2 * ITERS)
    for _ in range(ITERS):
        enc.recv(0, TAG_PING)
        enc.send(MSG, 0, tag=TAG_PING)
    return None


def main() -> None:
    print("1. one typed fabric, parsed from the spec grammar")
    spec = api.parse_network_spec("wan:jitter=10%,wobble=5%,loss=2%,seed=7")
    print(f"   {spec}")
    print(f"   canonical token: {spec.token()!r} "
          f"(round-trips: {api.parse_network_spec(spec.token()) == spec})\n")

    print("2. encrypted ping-pong on it, 20 seeded reps, 95% CI")
    policy = api.ResiliencePolicy(max_retries=6, timeout=5e-3,
                                  escalation="plain_fallback")
    job = api.run_job(
        pingpong, nranks=2,
        security=api.SecurityConfig(library="boringssl"),
        network=spec,
        resilience=policy, stats="reps=20",
    )
    est = job.stats.estimate
    print(f"   one-way latency: {est.median * 1e6:.1f} us "
          f"± {est.halfwidth * 1e6:.1f} (n={est.n})")
    print(f"   reliability: {job.resilience.retransmits} retransmits, "
          f"{job.resilience.acks} acks in rep 0\n")

    print("3. the same master seed reproduces the samples bit-for-bit")
    again = api.run_job(
        pingpong, nranks=2,
        security=api.SecurityConfig(library="boringssl"),
        network=spec,
        resilience=policy, stats="reps=20",
    )
    print(f"   samples identical: {again.stats.samples == job.stats.samples}\n")

    print("4. sweep clean vs hostile fabrics (labels use the token)")
    points = api.sweep(
        pingpong, nranks=2,
        securities=(api.SecurityConfig(library="boringssl"),),
        networks=("ethernet", "wan", spec,
                  api.FabricSpec(base="iot", jitter=0.2, loss=0.02, seed=7)),
        resilience=policy, stats="reps=5",
    )
    for p in points:
        e = p.result.stats.estimate
        print(f"   {p.network:38s} {e.median * 1e6:10.1f} us "
              f"± {e.halfwidth * 1e6:.1f}")


if __name__ == "__main__":
    main()
