"""Tests for the parallel cover pipeline: determinism and executor parity.

`ParallelCoverBuilder` must produce covers byte-identical to the sequential
`build_total_cover` pipeline for every executor, wave size and chunking —
speculation and sharding are allowed to change *where* canopies are computed,
never *what* they contain.
"""

import pytest

from repro.blocking import (
    CanopyBlocker,
    ParallelCoverBuilder,
    StandardBlocker,
    build_total_cover,
)
from repro.datasets import GeneratorConfig, NameNoiseModel, generate_bibliography
from repro.parallel import SerialExecutor, ThreadedExecutor


def dataset(seed=3, authors=35):
    return generate_bibliography(GeneratorConfig(
        n_authors=authors, n_papers=authors * 2, n_sources=2,
        noise=NameNoiseModel(abbreviate_probability=0.5, typo_probability=0.2),
        seed=seed,
    ))


def cover_signature(cover):
    return [(n.name, tuple(sorted(n.entity_ids))) for n in cover]


@pytest.fixture(scope="module")
def store():
    return dataset().store


@pytest.fixture(scope="module")
def reference(store):
    return cover_signature(build_total_cover(CanopyBlocker(), store,
                                             relation_names=["coauthor"]))


class TestParallelCoverParity:
    def test_serial_executor_matches_sequential(self, store, reference):
        builder = ParallelCoverBuilder(relation_names=["coauthor"])
        assert cover_signature(builder.build_total_cover(store)) == reference

    def test_threaded_executor_matches_sequential(self, store, reference):
        builder = ParallelCoverBuilder(executor="threads", workers=3,
                                       relation_names=["coauthor"])
        assert cover_signature(builder.build_total_cover(store)) == reference

    def test_process_executor_matches_sequential(self, store, reference):
        builder = ParallelCoverBuilder(executor="processes", workers=2,
                                       relation_names=["coauthor"])
        assert cover_signature(builder.build_total_cover(store)) == reference

    def test_small_waves_match_one_shot(self, store, reference):
        for wave_size in (1, 7, 64):
            builder = ParallelCoverBuilder(executor="threads", workers=2,
                                           wave_size=wave_size,
                                           relation_names=["coauthor"])
            assert cover_signature(builder.build_total_cover(store)) == reference

    def test_executor_instance_accepted(self, store, reference):
        with ThreadedExecutor(workers=2) as executor:
            builder = ParallelCoverBuilder(executor=executor, workers=2,
                                           relation_names=["coauthor"])
            assert cover_signature(builder.build_total_cover(store)) == reference

    def test_different_canopy_seeds_still_match(self, store):
        for seed in (1, 17):
            blocker = CanopyBlocker(seed=seed)
            expected = cover_signature(build_total_cover(
                blocker, store, relation_names=["coauthor"]))
            builder = ParallelCoverBuilder(CanopyBlocker(seed=seed),
                                           executor="threads", workers=2,
                                           relation_names=["coauthor"])
            assert cover_signature(builder.build_total_cover(store)) == expected


class TestFallbackPaths:
    def test_non_canopy_blocker_falls_back_to_its_cover(self, store):
        blocker = StandardBlocker()
        expected = cover_signature(build_total_cover(
            blocker, store, relation_names=["coauthor"]))
        builder = ParallelCoverBuilder(blocker, executor="threads", workers=2,
                                       relation_names=["coauthor"])
        assert cover_signature(builder.build_total_cover(store)) == expected

    def test_tfidf_canopy_blocker_falls_back(self, store):
        blocker = CanopyBlocker(similarity="tfidf", loose_threshold=0.4,
                                tight_threshold=0.7)
        expected = cover_signature(build_total_cover(
            blocker, store, relation_names=["coauthor"]))
        builder = ParallelCoverBuilder(blocker, executor="threads", workers=2,
                                       relation_names=["coauthor"])
        assert cover_signature(builder.build_total_cover(store)) == expected

    def test_custom_similarity_falls_back(self, store):
        def exotic(a, b):
            return 1.0 if a.get("lname") == b.get("lname") else 0.0

        blocker = CanopyBlocker(similarity=exotic)
        expected = cover_signature(build_total_cover(
            blocker, store, relation_names=["coauthor"]))
        builder = ParallelCoverBuilder(blocker, executor="threads", workers=2,
                                       relation_names=["coauthor"])
        assert cover_signature(builder.build_total_cover(store)) == expected


class TestExpansion:
    def test_parallel_expand_matches_serial(self, store):
        from repro.blocking import expand_to_total_cover
        base = CanopyBlocker().build_cover(store)
        serial = expand_to_total_cover(base, store, relation_names=["coauthor"])
        builder = ParallelCoverBuilder(executor="threads", workers=3,
                                       relation_names=["coauthor"])
        assert cover_signature(builder.expand(base, store)) == cover_signature(serial)

    def test_multi_round_expansion_matches(self, store):
        from repro.blocking import expand_to_total_cover
        base = CanopyBlocker().build_cover(store)
        names = store.relation_names()
        serial = expand_to_total_cover(base, store, relation_names=names, rounds=3)
        builder = ParallelCoverBuilder(executor="threads", workers=2,
                                       relation_names=names, rounds=3)
        assert cover_signature(builder.expand(base, store)) == cover_signature(serial)


class TestSpeculationSoundness:
    """Regressions for the speculative same-group wave skip.

    Equal normalized parts do NOT imply shared tokens (normalization strips
    periods the tokenizer keeps), so the skip may only fire for entities
    with identical raw text — and never for token-less entities, which no
    canopy can remove.
    """

    def test_equal_parts_different_text_not_skipped(self):
        from repro.datamodel import EntityStore, make_author
        store = EntityStore()
        # "A.B" and "AB" normalize to the same first-name part but tokenize
        # differently, so neither appears in the other's candidate set.
        store.add_entities([
            make_author("e1", "A.B", ""),
            make_author("e2", "AB", ""),
            make_author("e3", "AB Jones", ""),
        ])
        for seed in range(6):
            blocker = CanopyBlocker(loose_threshold=0.5, tight_threshold=0.99,
                                    seed=seed)
            expected = cover_signature(blocker.build_cover(store))
            builder = ParallelCoverBuilder(
                CanopyBlocker(loose_threshold=0.5, tight_threshold=0.99,
                              seed=seed))
            assert cover_signature(builder.build_cover(store)) == expected, seed

    def test_token_less_twins_not_skipped(self):
        from repro.datamodel import EntityStore, make_author
        store = EntityStore()
        # Empty names produce empty token sets: identical twins never remove
        # each other, so each must still get its own singleton canopy.
        store.add_entities([make_author(f"e{i}", "", "") for i in range(4)])
        blocker = CanopyBlocker(loose_threshold=0.5, tight_threshold=0.6)
        expected = cover_signature(blocker.build_cover(store))
        builder = ParallelCoverBuilder(
            CanopyBlocker(loose_threshold=0.5, tight_threshold=0.6))
        assert cover_signature(builder.build_cover(store)) == expected

    def test_identical_rendering_twins_parity(self, store, reference):
        # The skip is exercised heavily on real duplicate-laden data; the
        # module-level parity fixtures cover it, this pins the low-tight
        # regime where groups do NOT remove themselves.
        blocker = CanopyBlocker(loose_threshold=0.7, tight_threshold=0.7)
        expected = cover_signature(build_total_cover(
            blocker, store, relation_names=["coauthor"]))
        builder = ParallelCoverBuilder(
            CanopyBlocker(loose_threshold=0.7, tight_threshold=0.7),
            executor="threads", workers=2, relation_names=["coauthor"])
        assert cover_signature(builder.build_total_cover(store)) == expected


class TestValidation:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelCoverBuilder(workers=0)

    def test_invalid_wave_size_rejected(self):
        with pytest.raises(ValueError):
            ParallelCoverBuilder(wave_size=0)

    def test_default_executor_is_serial(self):
        assert isinstance(ParallelCoverBuilder().executor, SerialExecutor)

    def test_validation_agrees_with_serial_pipeline(self, store):
        from repro.exceptions import CoverError
        # Whatever the serial pipeline decides about totality w.r.t. all
        # relations (some, like cites, may be unreachable from an author
        # cover in one round), the parallel pipeline must decide the same.
        names = store.relation_names()

        def raises(build):
            try:
                build()
            except CoverError:
                return True
            return False

        serial = raises(lambda: build_total_cover(
            CanopyBlocker(), store, relation_names=names))
        parallel = raises(lambda: ParallelCoverBuilder(
            relation_names=names).build_total_cover(store))
        assert serial == parallel
