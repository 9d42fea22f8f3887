"""Microbenchmarks of the MSL substrate itself.

Not a paper artifact — these pin the costs of the layers everything else
is built on: tokenizing/parsing MSL text, matching patterns against OEM
structures (with and without Rest variables and join variables), and
OEM text round-trips.  Useful for catching algorithmic regressions in
the matcher's backtracking.
"""

import pytest

from repro.datasets import MS1, record_forest
from repro.msl import match_all, parse_pattern, parse_specification
from repro.oem import parse_oem, to_text


def test_parse_ms1(benchmark):
    spec = benchmark(parse_specification, MS1)
    assert len(spec.rules) == 1
    assert len(spec.externals) == 2


def test_parse_large_specification(benchmark):
    text = " ; ".join(
        f"<v{i} {{<a A> <b B> | R}}> :- <s{i} {{<a A> <b B> | R}}>@src{i}"
        for i in range(100)
    )
    spec = benchmark(parse_specification, text)
    assert len(spec.rules) == 100


@pytest.fixture(scope="module")
def forest():
    return record_forest(1000, seed=3, irregular_fraction=0.2)


def test_match_constant_filter(forest, benchmark):
    pattern = parse_pattern("<person {<dept 'dept_10'>}>")
    results = benchmark(match_all, pattern, forest)
    assert isinstance(results, list)


def test_match_with_rest(forest, benchmark):
    pattern = parse_pattern("<person {<name N> | Rest}>")
    results = benchmark(match_all, pattern, forest)
    assert results


def test_match_with_join_variable(benchmark):
    # objects where two fields must agree: exercises binding conflicts
    from repro.oem import atom, obj

    data = [
        obj("rec", atom("a", i % 5), atom("b", (i + 1) % 5))
        for i in range(500)
    ]
    pattern = parse_pattern("<rec {<a X> <b X>}>")
    results = benchmark(match_all, pattern, data)
    assert len(results) == 0  # a == b never holds: i%5 != (i+1)%5


def test_match_permutation_heavy(benchmark):
    """Many same-label children: the injective-assignment worst case."""
    from repro.oem import atom, obj

    wide = obj("rec", *[atom("tag", i) for i in range(9)])
    pattern = parse_pattern("<rec {<tag X> <tag Y> <tag Z>}>")
    results = benchmark(match_all, pattern, [wide])
    assert len(results) == 9 * 8 * 7


def test_compiled_matcher_speedup(forest, artifact_sink):
    """The compiled matcher against the interpretive reference on this
    module's workload shapes, per pattern (the per-query comparison is
    the e2e suite's ``rule_eval_us_per_object`` pair of rows)."""
    import time

    from repro.msl import compile_pattern

    rows = []
    for name, text in [
        ("constant filter", "<person {<dept 'dept_10'>}>"),
        ("rest variable", "<person {<name N> | Rest}>"),
    ]:
        pattern = parse_pattern(text)
        compiled = compile_pattern(pattern)

        start = time.perf_counter()
        for _ in range(5):
            match_all(pattern, forest)
        interp = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(5):
            compiled.match_all(forest)
        fast = time.perf_counter() - start
        rows.append((name, interp / fast))

    artifact_sink(
        "MSL layer — compiled matcher speedup (1000 objects)",
        "\n".join(f"{name}: {speedup:.2f}x" for name, speedup in rows),
    )
    assert all(speedup > 1.0 for _, speedup in rows)


def test_oem_roundtrip(forest, benchmark):
    text = to_text(forest)

    def roundtrip():
        return parse_oem(text)

    parsed = benchmark(roundtrip)
    assert len(parsed) == len(forest)
