"""Ablation A4: wall-clock scaling with the number of jobs.

Times DM / DMR / OPDCA / OPT on edge workloads of growing size
(resources scaled proportionally), exposing OPDCA's paper-stated
O(n^3 N) growth against the near-quadratic heuristics -- and how far
the implementation beats it.

The table carries the fast-path evidence for the two tentpole
optimisations, as hardware-independent ratios:

* ``speedup(bounds)``: the vectorised all-jobs ``delay_bounds_all``
  vs the legacy per-job scalar loop (~10x at n >= 100);
* ``speedup(level)``: one full Audsley-level evaluation under the
  paired contribution kernel vs the reference broadcast tensor path.
  Historically this dipped *below* 1.0 at n=200 (the job-major
  contribution tensors thrashed cache); the stage-major layout fixed
  it and CI now floors ``speedup(level)@n=200`` at 1.0;
* ``speedup(opdca)``: end-to-end batched OPDCA (paired kernels +
  frontier-carrying Audsley) vs the serial per-candidate scan.  The
  committed baseline was stuck at 1.0-1.15x before the frontier
  engine; the run gates on >= 2.0x at n=100 (the committed CI
  baseline gates the measured value, >= 2.5x, with -20% tolerance).

Per-phase timings (``t(segments)``, ``t(level/...)``) break the cold
analysis cost into the one-off segment algebra and the per-level
evaluation primitive.  The n=200 size exposes the asymptotic win: the
frontier engine's advantage grows with n.
"""

from repro.experiments.ablation import scalability
from repro.experiments.config import full_scale


def test_scalability(benchmark):
    if full_scale():
        job_counts, cases = (25, 50, 100, 150, 200), 3
    else:
        job_counts, cases = (25, 50, 100, 200), 2

    # Always serial (even under REPRO_JOBS): this is a timing table,
    # and concurrent workers contending for cores would distort the
    # very measurements -- and the speedup gate -- it exists to show.
    result = benchmark.pedantic(
        lambda: scalability(job_counts=job_counts, cases=cases,
                            n_workers=1),
        rounds=1, iterations=1)
    for row in result.rows:
        jobs = row["jobs"]
        for key, value in row.items():
            if key.startswith(("t(", "speedup(")):
                benchmark.extra_info[f"{key}@n={jobs}"] = round(value, 4)
    print()
    print(result.format())
    # Sanity: every timing is positive and the table covers all sizes.
    assert len(result.rows) == len(job_counts)
    # The batched bound evaluation must beat the legacy per-job loop by
    # at least 2x at the largest size (the PR-1 tentpole fast path).
    largest = result.rows[-1]
    speedup = largest["speedup(bounds)"]
    print(f"\nbatched bound evaluation speedup at "
          f"n={largest['jobs']}: {speedup:.1f}x")
    assert speedup >= 2.0
    # The frontier-carrying batch OPDCA must beat the serial scan by at
    # least 2x at n=100 (measured ~3x; the committed baseline gates the
    # measured value with -20% tolerance on top of this hard floor).
    at_100 = next(row for row in result.rows if row["jobs"] == 100)
    opdca_speedup = at_100["speedup(opdca)"]
    print(f"frontier OPDCA speedup at n=100: {opdca_speedup:.1f}x")
    assert opdca_speedup >= 2.0
