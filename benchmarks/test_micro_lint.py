"""Static-analysis microbenchmarks (real timing): the full ``repro
lint`` suite over the package, cold and served from its incremental
cache.

The lint gate runs every rule pack, interprocedural taint flow
included, in tier-1, so its cost is tracked like a kernel's: the cold
case is the analysis cost, the cached case the payoff of the cache.
"""

from repro.lint import run_lint
from repro.lint.runner import default_target

#: A lint run takes seconds: a few rounds give a median without making
#: ``pytest benchmarks/`` wait a minute for it.
ROUNDS = 3


def test_bench_lint_full_suite(benchmark):
    target = default_target()
    report = benchmark.pedantic(lambda: run_lint([target]),
                                rounds=ROUNDS, iterations=1)
    assert report.modules_checked > 0 and not report.from_cache


def test_bench_lint_cached_suite(benchmark, tmp_path):
    target = default_target()
    run_lint([target], cache_dir=tmp_path)  # populate
    report = benchmark.pedantic(
        lambda: run_lint([target], cache_dir=tmp_path),
        rounds=ROUNDS, iterations=1)
    assert report.from_cache
