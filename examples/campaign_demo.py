#!/usr/bin/env python3
"""Campaign runner: parallel experiment execution with a warm cache.

The paper's evaluation is 29 artifacts (Tables I-VIII, Figs. 2-15,
plus extensions).  ``api.run_campaign`` runs any selection of them across a
worker pool, merges the results in registry order (the simulator is
deterministic, so parallel output is byte-identical to serial), and
memoises each cell in a content-addressed cache keyed by experiment id,
configuration digest, and a fingerprint of the source tree.  A second
run therefore costs nothing, and any edit under ``src/repro``
invalidates every cell, because the code fingerprint covers the whole
package.

The same machinery backs the CLI:

    python -m repro.experiments campaign fig2 table1 table5 -j 2
    python -m repro.experiments campaign fig2 table1 table5 -j 2 --expect-all-cached

Run:  python examples/campaign_demo.py
"""

import tempfile

from repro import api

SELECTION = ["fig2", "table1", "table5"]  # three sub-second cells


def main() -> None:
    with tempfile.TemporaryDirectory() as results_dir:
        print(f"— cold campaign: {', '.join(SELECTION)} —")
        cold = api.run_campaign(SELECTION, jobs=2, results_dir=results_dir)
        for cell in cold.cells:
            print(f"  {cell.experiment_id:8s} {cell.seconds:5.2f}s  "
                  f"worker {cell.worker}")
        print(f"  {cold.misses} executed, {cold.hits} cached, "
              f"{cold.duration:.2f}s total")

        print("— warm re-run: every cell served from the cache —")
        warm = api.run_campaign(SELECTION, jobs=2, results_dir=results_dir)
        assert warm.hits == len(SELECTION) and warm.misses == 0
        for cold_cell, warm_cell in zip(cold.cells, warm.cells):
            assert warm_cell.artifact == cold_cell.artifact
        print(f"  {warm.hits} cache hit(s) in {warm.duration:.2f}s "
              f"(fingerprint {warm.code_fingerprint})")

        headline = cold.cell("fig2").artifact["headlines"]
        first = sorted(headline)[0]
        print(f"  sample headline from fig2: {first} = "
              f"{headline[first]['measured']:.2f}")


if __name__ == "__main__":
    main()
