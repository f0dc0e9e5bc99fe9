"""Measure the BOX's parallel-scaling ceiling for the string-distance
kernels — no Ray involved.

Runs the pair-feature hot kernels (jaro_winkler_sim p=0.1 + osa_sim, the
same calls stages/features.py issues per pair) in K independent processes
and reports per-process and aggregate pairs/sec. This isolates hardware
(memory bandwidth / allocator contention on a single VM) from engine
overhead: if the kernels alone stop scaling past some K, no orchestration
layer can scale past it either at that parallelism on this box — while on
a real multi-node cluster each node brings its own memory bandwidth, so
the single-box ceiling does not apply to the N -> 4N *node* criterion.

Measured on the round-3 sandbox (32-core single-socket Xeon VM, 1 NUMA
node), 50k pairs x 4 iters per process:

    K=1   per-proc 123k   aggregate 123k  pairs/s
    K=2   per-proc 109k   aggregate 217k
    K=8   per-proc 127k   aggregate 1.02M
    K=32  per-proc  74k   aggregate 2.37M   <- 8->32 = 2.33x of 4x ideal

i.e. the box's own kernel ceiling for 8->32 processes is ~0.58 efficiency;
per-core throughput is flat through K=8 and collapses ~42% at K=32
(bandwidth saturation). BASELINE.md §scaling uses this to attribute the
flagship's 8->32 shortfall and to justify the 2->8 cpu measurement pair
(both levels below the wall) as the engine-overhead evidence.

Re-measured on a 4-vCPU Xeon VM with the bit-parallel Jaro and OSA cores
(rows of up to 64 codepoints) against the per-cell DP cores they replace,
same arguments (50k pairs x 4 iters per process):

          per-cell DP             bit-parallel
    K=1   per-proc 114k  agg 114k    per-proc 238k  agg 238k   pairs/s
    K=2   per-proc 125k  agg 251k    per-proc 261k  agg 523k
    K=4   per-proc 129k  agg 516k    per-proc 299k  agg 1.20M

Usage: python scripts/bench_kernel_concurrency.py [K] [iters]
"""

import multiprocessing as mp
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def work(args):
    seed, n_iters = args
    from capelinker_ray.kernels.strdist import jaro_winkler_sim, osa_sim
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    n = 50_000
    a = np.array(["".join(rng.choice(letters, 16)) for _ in range(n)],
                 dtype=object)
    b = np.array(["".join(rng.choice(letters, 16)) for _ in range(n)],
                 dtype=object)
    t0 = time.monotonic()
    for _ in range(n_iters):
        jaro_winkler_sim(a, b, p=0.1)
        osa_sim(a, b)
    return n * n_iters / (time.monotonic() - t0)


def main() -> int:
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    iters = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    with mp.Pool(k) as p:
        rates = p.map(work, [(i, iters) for i in range(k)])
    print(f"K={k} per_proc_mean={np.mean(rates):,.0f} "
          f"agg={sum(rates):,.0f} pairs/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
