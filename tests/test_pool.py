"""The CLI pool's chunking and the read-only caches of per-grid constants.

The chunked pool and the caches change no output bit: the reference
formulas below are the uncached ones, and the harmonic check's bytes are
compared across thread counts.  Recovery runs without the pool.
"""

import json
import pathlib
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perimeter_phase as pp
from perimeter_phase import cli, fieldio, minimize


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return str(path)


def run_bytes(tmp, kind, payload, threads, monkeypatch):
    """Output files of one CLI run under the given thread count, by name."""
    monkeypatch.setattr(cli, "_workers", lambda: threads)
    out = tmp / f"{kind}-{threads}"
    cfg = write_config(tmp / f"{kind}-{threads}.json", payload)
    assert cli.main([kind, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------------------
# Pool size


def test_workers_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert cli._workers() == 1


def test_workers_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._workers() == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._workers() == 1


def test_workers_caps_the_pool_at_four(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert cli._workers() == 4


def test_no_module_reads_the_environment():
    # The pool size, like every other setting, comes from the machine or
    # the config, never from an environment variable.
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\benviron\b|getenv", text), path.name


# ---------------------------------------------------------------------------
# Chunking


def _square(x):
    return (x, x * x)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(length=st.integers(0, 40), threads=st.integers(1, 5))
def test_map_chunks_equals_the_plain_loop(length, threads):
    items = [3 * i - 7 for i in range(length)]
    with mock.patch.object(cli, "_workers", lambda: threads):
        assert cli._map_chunks(_square, items) == [_square(x) for x in items]


class ItemFailed(Exception):
    pass


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    data=st.data(),
    length=st.integers(1, 40),
    threads=st.integers(1, 5),
)
def test_map_chunks_raises_the_first_failing_item(data, length, threads):
    items = list(range(length))
    failing = data.draw(st.sets(st.sampled_from(items), min_size=1))

    def fn(x):
        if x in failing:
            raise ItemFailed(x)
        return x

    with mock.patch.object(cli, "_workers", lambda: threads):
        with pytest.raises(ItemFailed) as info:
            cli._map_chunks(fn, items)
    assert info.value.args == (min(failing),)


class CountingPool(ThreadPoolExecutor):
    """ThreadPoolExecutor that records the pool size and every submission."""

    sizes: list = []
    submissions: list = []

    def __init__(self, max_workers=None, *args, **kwargs):
        CountingPool.sizes.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        CountingPool.submissions.append(args)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr(CountingPool, "sizes", [])
    monkeypatch.setattr(CountingPool, "submissions", [])
    monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
    return CountingPool


def test_map_chunks_of_nothing_starts_no_pool(monkeypatch, counting_pool):
    monkeypatch.setattr(cli, "_workers", lambda: 3)
    assert cli._map_chunks(_square, []) == []
    assert counting_pool.sizes == [] and counting_pool.submissions == []


def test_map_chunks_caps_the_pool_at_the_item_count(monkeypatch, counting_pool):
    monkeypatch.setattr(cli, "_workers", lambda: 5)
    assert cli._map_chunks(_square, [4, 5]) == [(4, 16), (5, 25)]
    assert counting_pool.sizes == [2]
    assert len(counting_pool.submissions) == 2


def test_map_chunks_cuts_contiguous_near_equal_chunks(monkeypatch, counting_pool):
    monkeypatch.setattr(cli, "_workers", lambda: 3)
    cli._map_chunks(_square, list(range(10)))
    assert counting_pool.submissions == [(0, 3), (3, 6), (6, 10)]


def test_harmonic_check_submits_one_task_per_worker(tmp_path, monkeypatch, counting_pool):
    # One task per field pays the pool's hand-over 100 times.
    cfg = write_config(tmp_path / "h.json", {"count": 100, "n": 64})
    assert cli.main(["harmonic-check", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert 1 <= len(counting_pool.submissions) <= cli._workers()


# ---------------------------------------------------------------------------
# Read-only caches


def test_stencil_eigenvalues_are_read_only():
    for m, dim in ((5, 1), (5, 2), (63, 2)):
        eig = minimize._stencil_eigenvalues(m, dim)
        assert eig.shape == (m,) * dim
        assert not eig.flags.writeable
        with pytest.raises(ValueError):
            eig[0] = 1.0
        assert minimize._stencil_eigenvalues(m, dim) is eig


def test_upsample_weights_are_read_only():
    arrays = cli._upsample_weights(9, 65)
    assert cli._upsample_weights(9, 65) is arrays
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_caches_under_contention_hand_out_correct_read_only_arrays():
    # More threads than cores, switching as often as the interpreter allows,
    # all missing the caches at once on a fresh set of keys.
    minimize._stencil_eigenvalues.cache_clear()
    cli._upsample_weights.cache_clear()
    keys = [(m, dim) for m in (17, 33) for dim in (1, 2)]

    def worker(i):
        m, dim = keys[i % len(keys)]
        eig = minimize._stencil_eigenvalues(m, dim)
        weights = cli._upsample_weights(9, m)
        return i, eig, weights

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(worker, i) for i in range(64)]]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 64
    for i, eig, weights in results:
        m, dim = keys[i % len(keys)]
        assert not eig.flags.writeable
        assert eig.tobytes() == _uncached_eigenvalues(m, dim).tobytes()
        t = np.linspace(0.0, 8.0, m)
        i0 = np.clip(t.astype(int), 0, 7)
        expect = (i0, i0 + 1, 1.0 - (t - i0), t - i0)
        for a, b in zip(weights, expect):
            assert not a.flags.writeable
            assert a.tobytes() == b.tobytes()


def _uncached_eigenvalues(m, dim):
    sines = np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1)))
    lam = 4.0 * (0.5 * (m + 1)) ** dim * sines * sines
    return lam if dim == 1 else lam[:, None] + lam[None, :]


def _fresh_dst1(values):
    # One freshly zero-padded array and one FFT per pass.
    m = values.shape[-1]
    padded = np.zeros(values.shape[:-1] + (2 * (m + 1),))
    padded[..., 1 : m + 1] = values
    return np.fft.rfft(padded).imag[..., 1 : m + 1]


def _uncached_spectral_solve(rhs):
    m, dim = rhs.shape[0], rhs.ndim
    eig = _uncached_eigenvalues(m, dim)
    coef = rhs
    for _ in range(dim):
        coef = _fresh_dst1(coef).T
    coef /= eig
    for _ in range(dim):
        coef = _fresh_dst1(coef).T
    return coef


def _uncached_upsample(coarse, m):
    k = coarse.shape[0]
    t = np.linspace(0.0, k - 1.0, m)
    i0 = np.clip(t.astype(int), 0, k - 2)
    f = t - i0
    rows = coarse[i0, :] * (1.0 - f)[:, None] + coarse[i0 + 1, :] * f[:, None]
    return rows[:, i0] * (1.0 - f)[None, :] + rows[:, i0 + 1] * f[None, :]


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_solve_is_bitwise_the_uncached_formula(dim):
    rng = np.random.default_rng(13)
    for n in range(2, 131):
        rhs = rng.standard_normal((n - 1,) * dim)
        expect = _uncached_spectral_solve(rhs.copy())
        # Twice: the first call fills the cache, the second reads it.
        for _ in range(2):
            given = rhs.copy()
            got = minimize._spectral_laplace_solve(given)
            assert got.tobytes() == expect.tobytes(), n
            assert given.tobytes() == rhs.tobytes(), n


@pytest.mark.parametrize("k", [2, 9])
@pytest.mark.parametrize("m", [3, 65, 129])
def test_bilinear_upsample_is_bitwise_the_uncached_formula(k, m):
    rng = np.random.default_rng(k * 1000 + m)
    for _ in range(3):
        coarse = rng.standard_normal((k, k))
        got = cli._bilinear_upsample(coarse, m)
        assert got.shape == (m, m)
        assert got.tobytes() == _uncached_upsample(coarse, m).tobytes()


# ---------------------------------------------------------------------------
# Output bytes across thread counts


@pytest.mark.parametrize("count", [7, 1])
def test_harmonic_check_bytes_equal_across_thread_counts(tmp_path, monkeypatch, count):
    payload = {"count": count, "n": 64, "seed": 5}
    runs = [run_bytes(tmp_path, "harmonic-check", payload, t, monkeypatch) for t in (1, 2, 3, 5)]
    assert sorted(runs[0]) == ["harmonic.csv", "harmonic.json"]
    assert all(r == runs[0] for r in runs[1:])


def test_recovery_builds_its_scales_serially_as_the_library_does(tmp_path, counting_pool):
    # Recovery holds one scale at a time, so it starts no pool, and each dump
    # is the library's build of its scale, byte for byte.
    payload = {
        "builtin": "zero",
        "domain": {"kind": "box", "lo": -1.0, "hi": 1.0, "n": 64},
        "region": {"type": "disc", "center": [0.1, 0.0], "radius": 0.4},
        "epsilons": [1e-1, 3e-2, 1e-2],
        "dump_fields": True,
    }
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "recovery.json", payload)
    assert cli.main(["recovery", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert counting_pool.sizes == []
    domain = pp.Domain.box(-1.0, 1.0, 64)
    pair = pp.SharpPair(
        pp.ScalarField(domain, np.zeros(domain.node_shape)),
        region=pp.Disc((0.1, 0.0), 0.4),
    )
    for i, eps in enumerate(payload["epsilons"]):
        expect = tmp_path / f"expect_{i}.f64"
        fieldio.save_binary(pp.build_recovery(pair, eps)[0].field, str(expect))
        for suffix in ("", ".json"):
            got = out / f"recovery_{i:03d}.f64{suffix}"
            assert got.read_bytes() == pathlib.Path(f"{expect}{suffix}").read_bytes()
