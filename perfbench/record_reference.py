#!/usr/bin/env python3
"""Record perfbench/reference.json: the digest of every request key's
simulated results, and the fingerprint of every derived dataset, for a
range of workload seeds.

    python3 perfbench/record_reference.py --seeds 0-31

Run it from the root of a checkout at the commit whose outputs are the
reference. Results come from graphr_run; the benchmark then checks the
CLI, warm-store and daemon paths against them, which is also the
cold = warm = daemon identity check.
"""

import argparse
import json
import subprocess
import sys

import run as bench


def keys_for_seed(seed):
    """(workload, backend, dataset, functional) of every request a run
    with this seed can send."""
    specs = bench.datasets(seed)
    keys = [(w, b, specs[d], False) for w, b, d in bench.CLI_MIX]
    keys += [(w, b, specs[g], False) for g in ("main", "hot1")
             for w, b in bench.SERVE_KINDS]
    keys += [(w, "graphr", specs["functional"], True)
             for w in dict.fromkeys(bench.FUNCTIONAL_MIX)]
    for index in range(bench.REFERENCE_MISSES):
        w, b = bench.SERVE_KINDS[index % len(bench.SERVE_KINDS)]
        keys.append((w, b, bench.miss_dataset(seed, index), False))
    return list(dict.fromkeys(keys))


def record(bins, seed, digests):
    groups = {}
    for w, b, d, functional in keys_for_seed(seed):
        groups.setdefault((w, b, functional), []).append(d)
    for (w, b, functional), specs in groups.items():
        argv = [str(bins["run"]), "--algo", w, "--backend", b, "--jobs",
                str(min(4, bench.NPROC)), "--out", "-"]
        if functional:
            argv.append("--functional")
        for spec in specs:
            argv += ["--dataset", spec]
        out = subprocess.run(argv, check=True, capture_output=True,
                             text=True, cwd=bench.ROOT).stdout
        results = json.loads(out)["results"]
        if len(results) != len(specs):
            raise bench.BenchError(f"expected {len(specs)} results")
        for spec, result in zip(specs, results):
            digests[bench.key_of(w, b, spec, functional)] = \
                bench.digest_results([result])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bins = bench.build()
    digests, fingerprints = {}, {}
    for seed in range(first, last + 1):
        bench.log(f"seed {seed}")
        record(bins, seed, digests)
        for spec in bench.datasets(seed).values():
            out = subprocess.run(
                [str(bins["trace"]), "fingerprint", "--dataset", spec],
                check=True, capture_output=True, text=True).stdout
            a, b = json.loads(out)["fingerprints"]
            if a != b:
                raise bench.BenchError(f"unstable fingerprint: {spec}")
            fingerprints[spec] = a
    bench.REFERENCE.write_text(json.dumps(
        {"digests": digests, "fingerprints": fingerprints},
        indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
