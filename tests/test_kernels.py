"""Tests for the batch scoring kernel layer (``repro.kernels``).

The contract under test is *byte-identical parity*: every numpy kernel must
return exactly what the scalar reference path returns — same floats, same
admitted sets, same covers, same matches — so the backend is purely a
performance choice.  The suite therefore runs each kernel family under both
backends and compares with ``==``, never ``approx``.

The numpy-dependent tests skip cleanly when numpy is absent (the main CI
matrix installs no numpy and doubles as the scalar leg); the explicit
``no_numpy`` fixture additionally simulates the missing accelerator *with*
numpy installed, so both resolution branches are exercised from one
environment.

Under the default ``auto`` backend the leg is picked per batch and numpy is
imported by the first batch that needs it; what a *process* ends up having
imported is asserted in fresh subprocesses (``run_fresh``), since the test
process itself loads numpy for the parity suites.
"""

import importlib
import importlib.util
import json
import logging
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import CanopyBlocker, build_total_cover
from repro.core import EMFramework
from repro.datamodel import CompactStore, MatchSet
from repro.datasets import GeneratorConfig, NameNoiseModel, generate_bibliography
from repro.exceptions import ExperimentError
from repro.obs import registry as obs_registry
from repro.kernels import (
    BACKEND_ENV_VAR,
    BatchCanopyScorer,
    PackedStrings,
    backend,
    numpy_or_none,
    record,
    set_backend,
    use,
)
from repro.matchers import MLNMatcher, RulesMatcher
from repro.mln import GreedyCollectiveInference, Grounder, GroundNetwork, database_from_store
from repro.kernels.strings import _jaro_winkler_bound_rows, _jaro_winkler_rows
from repro.similarity import ProfiledNameScorer
from repro.similarity.jaro import jaro_winkler_similarity
from tests.util import (
    KERNEL_COUNTERS,
    build_chain_store,
    kernel_work,
    leveled_rules,
)

backend_module = importlib.import_module("repro.kernels.backend")
names_module = importlib.import_module("repro.kernels.names")

HAS_NUMPY = importlib.util.find_spec("numpy") is not None
requires_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

#: Alphabet for generated name parts: ascii, accents, separators, repeats.
NAME_ALPHABET = "abcdeosz éü'- "
names = st.text(alphabet=NAME_ALPHABET, max_size=12)


@pytest.fixture(autouse=True)
def _pristine_backend(monkeypatch):
    """Every test starts (and leaves) with an unforced, env-free backend."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    previous = backend_module._forced
    backend_module._forced = None
    yield
    backend_module._forced = previous


class _NumpyImportBlocker:
    """Meta-path finder that makes ``import numpy`` fail."""

    def find_spec(self, fullname, path=None, target=None):
        if fullname == "numpy" or fullname.startswith("numpy."):
            raise ImportError("numpy import blocked by test fixture")
        return None

    def find_module(self, fullname, path=None):  # pragma: no cover - legacy hook
        self.find_spec(fullname, path)
        return None


class _BrokenNumpyFinder:
    """Meta-path finder under which numpy is installed (``find_spec`` finds
    it) but will not import - an ABI mismatch, a partial install."""

    def find_spec(self, fullname, path=None, target=None):
        if fullname == "numpy":
            return importlib.util.spec_from_loader(fullname, self)
        return None

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        raise ImportError("numpy import broken by test fixture")


def _numpy_behind(finder, monkeypatch):
    """Hide the cached numpy modules, put ``finder`` first on the meta path
    and clear the probe cache; everything restored afterwards."""
    hidden = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name == "numpy" or name.startswith("numpy.")}
    sys.meta_path.insert(0, finder)
    for cached in ("_numpy_found", "_numpy_module", "_announced"):
        monkeypatch.setattr(backend_module, cached, None)
    try:
        yield
    finally:
        sys.meta_path.remove(finder)
        sys.modules.update(hidden)


@pytest.fixture
def no_numpy(monkeypatch):
    """Simulate an environment without numpy."""
    yield from _numpy_behind(_NumpyImportBlocker(), monkeypatch)


@pytest.fixture
def broken_numpy(monkeypatch):
    """Simulate a numpy that is installed but fails to import."""
    yield from _numpy_behind(_BrokenNumpyFinder(), monkeypatch)


def small_dataset(seed: int, authors: int = 30):
    config = GeneratorConfig(
        n_authors=authors, n_papers=authors * 2, n_sources=2,
        noise=NameNoiseModel(abbreviate_probability=0.5, typo_probability=0.2),
        seed=seed,
    )
    return generate_bibliography(config)


def cover_signature(cover):
    return [(n.name, tuple(sorted(n.entity_ids))) for n in cover]


def run_fresh(script: str, **environment) -> dict:
    """Run ``script`` in a new interpreter with an unforced backend (plus
    ``environment``); it prints one JSON object, returned here."""
    env = {key: value for key, value in os.environ.items()
           if key != BACKEND_ENV_VAR}
    env.update(environment, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ backend
class TestBackendResolution:
    def test_force_python(self):
        with use("python") as resolved:
            assert resolved == "python"
            assert backend() == "python"
            assert numpy_or_none() is None

    @requires_numpy
    def test_auto_detects_numpy(self):
        with use("auto"):
            assert backend() == "numpy"
            assert numpy_or_none() is not None

    def test_env_var_selects_backend(self):
        """The variable is read once, at import — which is how a spawned
        worker starts on its parent's choice — and forced ``python`` never
        imports numpy (at the parent ``backend()`` probed before it read)."""
        seen = run_fresh(
            "import json, sys\n"
            "from repro import kernels\n"
            "resolved = kernels.backend()\n"
            "json.dump({'backend': resolved, 'numpy_or_none':\n"
            "           kernels.numpy_or_none() is None,\n"
            "           'loaded': 'numpy' in sys.modules}, sys.stdout)\n",
            **{BACKEND_ENV_VAR: "python"})
        assert seen == {"backend": "python", "numpy_or_none": True,
                        "loaded": False}

    def test_cli_forcing_python_never_imports_numpy(self, tmp_path):
        seen = run_fresh(
            "import json, sys\n"
            "from repro.cli import main\n"
            f"path = {str(tmp_path / 'tiny.json')!r}\n"
            "assert main(['generate', '--preset', 'hepth', '--scale', '0.1',\n"
            "             '--output', path]) == 0\n"
            "assert main(['match', '--dataset', path, '--matcher', 'mln',\n"
            "             '--kernel-backend', 'python']) == 0\n"
            "print()\n"
            "json.dump({'loaded': 'numpy' in sys.modules}, sys.stdout)\n")
        assert seen == {"loaded": False}

    @requires_numpy
    def test_use_restores_a_backend_forced_from_the_environment(self):
        """``use()`` must hand back what the environment forced: the CI leg
        that runs every test on ``REPRO_KERNEL_BACKEND=numpy`` depends on it
        (at the parent the first ``use()`` exit dropped the process to auto)."""
        seen = run_fresh(
            "import json, os, sys\n"
            "from repro import kernels\n"
            "from repro.kernels.backend import vectorized\n"
            "with kernels.use('python'):\n"
            "    pass\n"
            "json.dump({'vectorised': vectorized(0, 1) is not None,\n"
            f"           'env': os.environ.get({BACKEND_ENV_VAR!r})}},\n"
            "          sys.stdout)\n",
            **{BACKEND_ENV_VAR: "numpy"})
        assert seen == {"vectorised": True, "env": "numpy"}

    @requires_numpy
    def test_forcing_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        with use("numpy"):
            assert backend() == "numpy"

    def test_set_backend_exports_env_var(self, monkeypatch):
        import os
        previous = set_backend("python")
        try:
            assert os.environ[BACKEND_ENV_VAR] == "python"
            set_backend("auto")
            assert BACKEND_ENV_VAR not in os.environ
        finally:
            set_backend(previous)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError):
            set_backend("cuda")

    def test_resolution_logged_once(self, caplog):
        backend_module._announced = None
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            with use("python"):
                backend()
                backend()
        lines = [r for r in caplog.records
                 if "kernel backend" in r.getMessage()]
        assert len(lines) == 1
        assert "python" in lines[0].getMessage()

    def test_without_numpy_auto_resolves_python(self, no_numpy):
        assert backend() == "python"
        assert numpy_or_none() is None

    def test_without_numpy_forcing_numpy_raises(self, no_numpy):
        with pytest.raises(ExperimentError):
            set_backend("numpy")

    def test_without_numpy_kernels_fall_back_to_scalar(self, no_numpy,
                                                       monkeypatch):
        """The dispatch point hands out the scalar leg: a canopy sweep past
        the break-even runs no batch."""
        monkeypatch.setattr(names_module, "CANOPY_BREAK_EVEN", 1e-9)
        store = small_dataset(seed=3).store
        with kernel_work() as work:
            cover = cover_signature(CanopyBlocker().build_cover(store))
        assert not any(work.values())
        with use("python"):
            assert cover == cover_signature(CanopyBlocker().build_cover(store))

    def test_numpy_that_will_not_import_degrades_auto_to_scalar(
            self, broken_numpy, monkeypatch, caplog, hepth_dataset):
        """``auto`` resolves from ``find_spec``, so the failure surfaces in
        the first batch past a break-even: it must take the scalar leg, warn
        once and stay scalar - not raise from the middle of a cover build."""
        monkeypatch.setattr(names_module, "CANOPY_BREAK_EVEN", 1e-9)
        assert backend() == "numpy"
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            cover = CanopyBlocker().build_cover(hepth_dataset.store)
            assert numpy_or_none() is None
        assert backend() == "python"
        assert len([r for r in caplog.records
                    if "failed to import" in r.getMessage()]) == 1
        with use("python"):
            assert cover_signature(cover) == cover_signature(
                CanopyBlocker().build_cover(hepth_dataset.store))

    def test_numpy_that_will_not_import_raises_when_forced(self, broken_numpy):
        with use("numpy"):
            with pytest.raises(ImportError):
                numpy_or_none()

    def test_without_numpy_cli_forcing_numpy_exits_2(self, no_numpy, capsys):
        from repro.cli import main
        # Backend resolution happens before the dataset is even opened.
        rc = main(["cover", "--dataset", "missing.json",
                   "--kernel-backend", "numpy"])
        assert rc == 2
        assert "numpy is not installed" in capsys.readouterr().err


# ----------------------------------------------------------------- counters
class TestKernelCounters:
    def test_record_lands_in_the_process_registry(self):
        with kernel_work() as work:
            record(pairs_scored=5, batches=1)
            record(prefilter_checked=10, prefilter_pruned=4)
        assert work == {"pairs_scored": 5, "batches": 1,
                        "prefilter_checked": 10, "prefilter_pruned": 4}

    def test_record_inside_a_capture_rides_the_delta(self):
        from repro.obs import registry as obs_registry
        with kernel_work() as work:
            with obs_registry.capturing() as delta:
                record(pairs_scored=3, batches=1)
        assert work["pairs_scored"] == 0       # redirected, not counted here
        carried = obs_registry.MetricsRegistry()
        carried.apply_wire(delta.as_wire())
        assert carried.get("kernel_pairs_scored_total").value() == 3
        assert carried.get("kernel_batches_total").value() == 1
        assert carried.get("kernel_prefilter_checked_total") is None

    @requires_numpy
    def test_kernels_report_work(self):
        with use("numpy"), kernel_work() as work:
            CanopyBlocker().build_cover(small_dataset(seed=3).store)
        assert work["batches"] >= 1 and work["pairs_scored"] >= 1
        assert work["prefilter_checked"] >= work["prefilter_pruned"] >= 1


# ------------------------------------------------------------ scorer memos
class CountingDict(dict):
    """A memo that counts its lookups: the scorer reads memos only via ``get``."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


MEMOS = ("memo_jw_last", "memo_jw_last_bound", "memo_jw_first", "memo_char_counts")


class TestScorerMemos:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ProfiledNameScorer({}, max_memo_entries=0)

    def test_eviction_is_first_in_first_out(self):
        scorer = ProfiledNameScorer({}, max_memo_entries=2)
        scorer._memo_jw("a", "smith")
        scorer._memo_jw("b", "smith")
        scorer._memo_jw("a", "smith")          # a hit does not refresh "a"
        scorer._memo_jw("c", "smith")          # evicts "a", the oldest insert
        assert list(scorer._memos["memo_jw_last"][0]) == [("b", "smith"),
                                                          ("c", "smith")]
        assert scorer.memo_stats()["memo_jw_last"] == {
            "hits": 1, "misses": 3, "entries": 2, "capacity": 2}

    def test_scorer_memos_are_bounded(self):
        scorer = ProfiledNameScorer({}, max_memo_entries=4)
        for i in range(32):
            scorer._memo_jw(f"name{i}", "smith")
        assert len(scorer._memos["memo_jw_last"][0]) == 4

    def test_memo_stats_count_every_lookup(self, monkeypatch):
        """``memo_stats`` hits + misses are exactly the lookups the scalar
        sweep made.  Nothing evicts here, so every miss stored one entry -
        except on the last-name memo, whose misses the bound mostly prunes."""
        scorers = []
        init = ProfiledNameScorer.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for name, (_, tally) in self._memos.items():
                self._memos[name] = (CountingDict(), tally)
            scorers.append(self)

        monkeypatch.setattr(ProfiledNameScorer, "__init__", counting_init)
        blocker = CanopyBlocker()
        with use("python"):
            blocker.build_cover(small_dataset(5, authors=60).store)
        (scorer,) = scorers
        stats = blocker.memo_stats()
        assert stats["memo_jw_last"]["hits"] > 0
        for name in MEMOS:
            memo = scorer._memos[name][0]
            assert stats[name]["hits"] + stats[name]["misses"] == memo.lookups
            assert stats[name]["entries"] == len(memo)
            if name != "memo_jw_last":
                assert stats[name]["misses"] == len(memo)
        assert 0 < stats["memo_jw_last"]["entries"] < stats["memo_jw_last"]["misses"]

    def test_registry_counters_rise_by_the_memo_tallies(self, hepth_dataset):
        hits = obs_registry.counter("lru_cache_hits_total", labels=("cache",))
        misses = obs_registry.counter("lru_cache_misses_total", labels=("cache",))
        before = {name: (hits.value(cache=name), misses.value(cache=name))
                  for name in MEMOS}
        blocker = CanopyBlocker()
        with use("python"):
            EMFramework(RulesMatcher(), hepth_dataset.store, blocker=blocker,
                        relation_names=["coauthor"]).cover
        for name, stats in blocker.memo_stats().items():
            assert (hits.value(cache=name) - before[name][0],
                    misses.value(cache=name) - before[name][1]) == \
                (stats["hits"], stats["misses"])
        assert sum(stats["hits"] for stats in blocker.memo_stats().values()) > 0

    def test_covers_identical_with_the_bound_forced_to_one(self, monkeypatch,
                                                           hepth_dataset):
        store = hepth_dataset.store
        init = ProfiledNameScorer.__init__
        with use("python"):
            unbounded = cover_signature(CanopyBlocker().build_cover(store))
            monkeypatch.setattr(ProfiledNameScorer, "__init__",
                                lambda self, *args: init(self, *args,
                                                         max_memo_entries=1))
            blocker = CanopyBlocker()
            bounded = cover_signature(blocker.build_cover(store))
        stats = blocker.memo_stats()
        assert all(memo["entries"] <= 1 for memo in stats.values())
        assert stats["memo_jw_last"]["misses"] > 1
        assert bounded == unbounded


# ------------------------------------------------- string kernels (parity)
def packed_rows(kernel, center, block, rows=None):
    """``kernel`` (a ``_*_rows`` function) of ``center`` against ``block`` -
    strings or a :class:`PackedStrings` - as a list; needs ``use("numpy")``."""
    np = numpy_or_none()
    packed = block if isinstance(block, PackedStrings) else PackedStrings(block)
    rows = np.arange(len(packed)) if rows is None else np.asarray(rows)
    return kernel(np, packed, center, rows).tolist()


@requires_numpy
class TestStringKernelParity:
    @settings(max_examples=30, deadline=None)
    @given(center=names, block=st.lists(names, max_size=12))
    def test_jaro_winkler_block_bit_identical(self, center, block):
        with use("numpy"):
            vectorized = packed_rows(_jaro_winkler_rows, center, block)
        assert vectorized == [jaro_winkler_similarity(center, other)
                              for other in block]

    @settings(max_examples=30, deadline=None)
    @given(center=names, block=st.lists(names, max_size=12))
    def test_bound_block_bit_identical_and_sound(self, center, block):
        with use("numpy"):
            bounds = packed_rows(_jaro_winkler_bound_rows, center, block)
            exact = packed_rows(_jaro_winkler_rows, center, block)
        scalar = ProfiledNameScorer({}).jaro_winkler_upper_bound
        assert bounds == [scalar(center, other) for other in block]
        for bound, score in zip(bounds, exact):
            assert bound >= score

    def test_packed_strings_reused_across_centers(self):
        with use("numpy"):
            block = ["smith", "smyth", "jones"]
            packed = PackedStrings(block)
            for center in ("smith", "smithe", "zzz"):
                for kernel in (_jaro_winkler_rows, _jaro_winkler_bound_rows):
                    assert packed_rows(kernel, center, packed) == \
                        packed_rows(kernel, center, block)

    def test_row_subset_selects_candidates(self):
        with use("numpy"):
            block = ["smith", "smyth", "jones", "doe"]
            full = packed_rows(_jaro_winkler_rows, "smith", block)
            subset = packed_rows(_jaro_winkler_rows, "smith",
                                 PackedStrings(block), rows=[1, 3])
        assert subset == [full[1], full[3]]


# ------------------------------------------------- batched canopy sweeps
@requires_numpy
class TestBatchCanopyParity:
    def scorer_and_postings(self, seed, entities=60):
        rng = random.Random(seed)
        firsts = ["john", "jon", "j", "mary", "m", "wei", ""]
        lasts = ["smith", "smyth", "smithe", "jones", "jonas", "garcia", "li"]
        parts = {f"e{i}": (rng.choice(firsts), rng.choice(lasts))
                 for i in range(entities)}
        postings = {}
        for key, (_, last) in parts.items():
            postings.setdefault(last, []).append(key)
        return ProfiledNameScorer(parts), postings

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           threshold=st.sampled_from([0.6, 0.78, 0.9]))
    def test_canopy_scores_identical_to_scalar(self, seed, threshold):
        scorer, postings = self.scorer_and_postings(seed)
        candidates = sorted(scorer.parts)
        fresh, _ = self.scorer_and_postings(seed)
        with use("numpy"):
            batch = BatchCanopyScorer(scorer, postings)
            for center in list(scorer.parts)[:10]:
                batched = batch.canopy_scores(center, candidates, threshold)
                scalar = list(fresh.canopy_scores(center, candidates, threshold))
                assert sorted(batched) == sorted(scalar)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_candidate_rows_equal_postings_union(self, seed):
        scorer, postings = self.scorer_and_postings(seed)
        with use("numpy"):
            batch = BatchCanopyScorer(scorer, postings)
            for center, (_, last) in list(scorer.parts.items())[:10]:
                rows = batch.candidate_rows([last], exclude=center)
                got = {batch.keys[row] for row in rows.tolist()}
                expected = set(postings.get(last, ())) - {center}
                assert got == expected

    def test_memo_state_shared_with_scalar_scorer(self):
        scorer, postings = self.scorer_and_postings(3)
        candidates = sorted(scorer.parts)
        with use("numpy"):
            batch = BatchCanopyScorer(scorer, postings)
            center = candidates[0]
            batched = batch.canopy_scores(center, candidates, 0.7)
        with use("python"):
            scalar = list(scorer.canopy_scores(center, candidates, 0.7))
        # Interleaving batched and scalar sweeps over the same scorer must
        # agree: the kernel reads and writes the scorer's own memos.
        assert sorted(batched) == sorted(scalar)

    def test_batch_scorer_none_on_scalar_backend(self):
        """On the scalar backend there is no batch scorer: the dispatch point
        hands out the scalar sweep and the class refuses to be built."""
        scorer, postings = self.scorer_and_postings(0)
        def built(*args, **kwargs):
            raise AssertionError("BatchCanopyScorer built on the python backend")
        with use("python"):
            with pytest.raises(RuntimeError):
                BatchCanopyScorer(scorer, postings)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(BatchCanopyScorer, "__init__", built)
                patch.setattr(names_module, "CANOPY_BREAK_EVEN", 0)
                sweep = names_module.canopy_sweep(scorer, postings, [])
            assert sorted(sweep("e0", [scorer.parts["e0"][1]], 0.6)) == sorted(
                scorer.canopy_scores("e0", set(postings[scorer.parts["e0"][1]])
                                     - {"e0"}, 0.6))


# ------------------------------------------------ auto: one leg per sweep
def all_cover_paths(store, **blocker_kwargs):
    """The two canopy call sites: string-keyed and interned."""
    blocker = CanopyBlocker(**blocker_kwargs)
    return [cover_signature(blocker.build_cover(store)),
            cover_signature(blocker.build_cover(CompactStore.from_store(store)))]


@requires_numpy
class TestCanopyAutoDispatch:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           canopy_seed=st.integers(min_value=0, max_value=50))
    def test_sweeps_on_either_side_of_the_break_even_equal_both_forced_legs(
            self, seed, canopy_seed):
        """A sweep whose pilot reaches the break-even runs vectorised, one
        whose pilot does not runs scalar - at both call sites - and the
        covers are the ones either forced leg builds."""
        store = small_dataset(seed, authors=40).store
        forced = {}
        for name in ("python", "numpy"):
            with use(name):
                forced[name] = all_cover_paths(store, seed=canopy_seed)
        scalar_sweeps = []
        scalar = ProfiledNameScorer.canopy_scores
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ProfiledNameScorer, "canopy_scores",
                          lambda self, center, *rest: scalar_sweeps.append(center)
                          or scalar(self, center, *rest))
            with use("auto"), kernel_work() as below:
                scalar_covers = all_cover_paths(store, seed=canopy_seed)
            assert scalar_sweeps and not any(below.values())
            del scalar_sweeps[:]
            patch.setattr(names_module, "CANOPY_BREAK_EVEN", 1e-9)
            with use("auto"), kernel_work() as above:
                batch_covers = all_cover_paths(store, seed=canopy_seed)
            assert not scalar_sweeps and above["batches"] > 0
        assert scalar_covers == batch_covers == forced["python"] == forced["numpy"]

    def test_pilot_is_the_mean_postings_union_of_the_first_centers(self):
        postings = {"a": ["x", "y", "z"], "b": ["y", "w"], "c": ["v"]}
        pilot = names_module.CANOPY_PILOT
        # {x,y,z,w} and {v}: counted, missing tokens ignored, nothing scored.
        assert names_module.pilot_rows(postings, [("a", "b"), ("c", "nope")]) \
            == (4 + 1) / pilot
        assert names_module.pilot_rows(postings, []) == 0.0
        # Only the first CANOPY_PILOT centers are read.
        def centers():
            yield from [("a",)] * pilot
            raise AssertionError("read past the pilot")
        assert names_module.pilot_rows(postings, centers()) == 3.0

    @pytest.mark.parametrize("preset", ["hepth_dataset", "dblp_dataset"])
    def test_sweep_below_the_break_even_never_builds_the_batch_scorer(
            self, request, monkeypatch, preset):
        def built(*args, **kwargs):
            raise AssertionError("BatchCanopyScorer built below the break-even")
        monkeypatch.setattr(names_module.BatchCanopyScorer, "__init__", built)
        store = request.getfixturevalue(preset).store
        with use("auto"), kernel_work() as work:
            covers = all_cover_paths(store)
        assert not any(work.values())
        with use("python"):
            assert covers == all_cover_paths(store)

    def test_forced_numpy_vectorises_from_the_first_center(self, hepth_dataset):
        scalar_sweeps = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ProfiledNameScorer, "canopy_scores",
                          lambda self, center, *rest: scalar_sweeps.append(center))
            with use("numpy"), kernel_work() as work:
                CanopyBlocker().build_cover(hepth_dataset.store)
        assert not scalar_sweeps and work["batches"] > 0


# ------------------------------------------------- end-to-end cover parity
@requires_numpy
class TestEndToEndParity:
    def build_cover(self, store, **blocker_kwargs):
        return build_total_cover(CanopyBlocker(**blocker_kwargs), store,
                                 relation_names=["coauthor"])

    def test_hepth_cover_identical_across_backends(self, hepth_dataset):
        signatures = {}
        for name in ("numpy", "python"):
            with use(name):
                signatures[name] = cover_signature(
                    self.build_cover(hepth_dataset.store))
        assert signatures["numpy"] == signatures["python"]

    def test_compact_store_cover_identical_across_backends(self, hepth_dataset):
        compact = CompactStore.from_store(hepth_dataset.store)
        signatures = {}
        for name in ("numpy", "python"):
            with use(name):
                signatures[name] = cover_signature(self.build_cover(compact))
        assert signatures["numpy"] == signatures["python"]

    @pytest.mark.parametrize("scheme", ["no-mp", "smp"])
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_grid_matches_identical_across_backends(self, hepth_dataset,
                                                    scheme, executor):
        matches = {}
        for name in ("numpy", "python"):
            with use(name):
                framework = EMFramework(MLNMatcher(), hepth_dataset.store,
                                        blocker=CanopyBlocker(),
                                        relation_names=["coauthor"])
                result = framework.run_grid(scheme, executor=executor)
                matches[name] = MatchSet(result.matches).transitive_closure().pairs
        assert matches["numpy"] == matches["python"]

    def test_greedy_inference_identical_across_backends(self):
        store = build_chain_store(length=10, level=2)
        db = database_from_store(store)
        network = GroundNetwork(
            Grounder(leveled_rules(-2.28, -3.84, 12.75, 2.46)).ground(db),
            db.candidates())
        results = {}
        for name in ("numpy", "python"):
            with use(name):
                results[name] = GreedyCollectiveInference().infer(network)
        assert results["numpy"].matches == results["python"].matches
        assert results["numpy"].score == results["python"].score

    def test_sequential_schemes_identical_across_backends(self, hepth_dataset):
        matches = {}
        for name in ("numpy", "python"):
            with use(name):
                framework = EMFramework(RulesMatcher(), hepth_dataset.store,
                                        blocker=CanopyBlocker(),
                                        relation_names=["coauthor"])
                result = framework.run("smp")
                matches[name] = MatchSet(result.matches).transitive_closure().pairs
        assert matches["numpy"] == matches["python"]


# ------------------------------------------------------------- observability
class TestKernelObservability:
    def build_framework(self, dataset, **kwargs):
        return EMFramework(MLNMatcher(), dataset.store, blocker=CanopyBlocker(),
                           relation_names=["coauthor"], **kwargs)

    @requires_numpy
    def test_cover_build_counts_kernel_work(self, hepth_dataset):
        with use("numpy"), kernel_work() as work:
            self.build_framework(hepth_dataset).cover
        assert work["pairs_scored"] > 0
        assert 0 < work["prefilter_pruned"] < work["prefilter_checked"]

    def test_python_backend_counts_nothing(self, hepth_dataset):
        with use("python"), kernel_work() as work:
            self.build_framework(hepth_dataset).run_grid(
                "smp", executor="serial")
        assert not any(work.values())

    @requires_numpy
    def test_served_session_reads_kernel_work_from_the_registry(
            self, hepth_dataset):
        """The service keeps no kernel tally of its own: both forms of
        ``/metrics`` read the process registry, so work done outside any map
        task - here a cover build beside the running service - is served."""
        from repro.serving import MatchService
        from repro.streaming import StreamSession

        def scraped(service):
            lines = dict(line.split()[:2]
                         for line in service.prometheus_metrics().splitlines()
                         if line.startswith("kernel_"))
            return {name: int(float(lines.get(counter.name, 0)))
                    for name, counter in KERNEL_COUNTERS.items()}

        with use("numpy"):
            service = MatchService(session=StreamSession(
                MLNMatcher(), hepth_dataset.store.copy())).start()
            try:
                before = scraped(service)
                with kernel_work() as work:
                    CanopyBlocker().build_cover(hepth_dataset.store)
                assert work["pairs_scored"] > 0
                assert work["prefilter_checked"] > 0
                served = scraped(service)
                assert served == {name: before[name] + work[name]
                                  for name in work}

                block = service.metrics()["kernels"]
                assert set(block) == {
                    "pairs_scored", "batches", "prefilter_checked",
                    "prefilter_pruned", "prefilter_hit_rate", "backend",
                    "numpy_loaded"}
                assert block["backend"] == "numpy"
                assert block["numpy_loaded"] is True
                assert {name: block[name] for name in served} == served
            finally:
                service.drain()

    def test_runs_below_the_break_evens_never_import_numpy(self):
        """numpy is a first-need import: a grid run, a stream session and a
        scraped service on a tiny instance finish without it - and the
        matcher phase never needs it: over a cover built on the scalar leg,
        an MLN MMP grid run under forced ``numpy`` finishes without it too."""
        seen = run_fresh(
            "import json, sys\n"
            "import repro.cli\n"
            "from repro import kernels\n"
            "from repro.blocking import CanopyBlocker\n"
            "from repro.core import EMFramework\n"
            "from repro.datasets import hepth_tiny\n"
            "from repro.matchers import MLNMatcher\n"
            "from repro.serving import MatchService\n"
            "from repro.streaming import StreamSession, synthesize_stream\n"
            "loaded = {}\n"
            "dataset = hepth_tiny()\n"
            "framework = EMFramework(MLNMatcher(), dataset.store,\n"
            "                        blocker=CanopyBlocker())\n"
            "framework.run_grid('smp')\n"
            "loaded['grid'] = 'numpy' in sys.modules\n"
            f"with kernels.use({'numpy' if HAS_NUMPY else 'python'!r}):\n"
            "    EMFramework(MLNMatcher(), dataset.store,\n"
            "                cover=framework.cover).run_grid('mmp')\n"
            "loaded['forced_mmp'] = 'numpy' in sys.modules\n"
            "scenario = synthesize_stream(dataset, batches=1,\n"
            "                             holdout_fraction=0.1, seed=7)\n"
            "session = StreamSession(MLNMatcher(), scenario.base.store.copy())\n"
            "session.start()\n"
            "session.apply(scenario.log.batches[0])\n"
            "loaded['stream'] = 'numpy' in sys.modules\n"
            "service = MatchService(session=StreamSession(\n"
            "    MLNMatcher(), scenario.base.store.copy())).start()\n"
            "try:\n"
            "    service.submit_deltas(scenario.log.batches[0]).wait(30.0)\n"
            "    service.prometheus_metrics()\n"
            "    block = service.metrics()['kernels']\n"
            "finally:\n"
            "    service.drain()\n"
            "loaded['service'] = 'numpy' in sys.modules\n"
            "json.dump({'loaded': loaded, 'block': block,\n"
            "           'resolved': kernels.backend()}, sys.stdout)\n")
        assert seen["loaded"] == {"grid": False, "forced_mmp": False,
                                  "stream": False, "service": False}
        assert seen["block"]["numpy_loaded"] is False
        assert seen["block"]["backend"] == seen["resolved"] == \
            ("numpy" if HAS_NUMPY else "python")
        assert seen["block"]["batches"] == 0

    def test_results_and_reports_carry_no_kernel_field(self):
        from dataclasses import fields
        from repro.parallel import GridRunResult
        from repro.parallel.resilience import RoundReport
        from repro.parallel.tasks import MapResult
        for cls in (MapResult, GridRunResult, RoundReport):
            assert not [f.name for f in fields(cls) if "kernel" in f.name]
