"""repro: reproduction of "Large-Scale Collective Entity Matching" (PVLDB 2011).

The library scales an arbitrary black-box collective entity matcher to large
datasets by running it on small, overlapping neighborhoods and passing
messages between them (Rastogi, Dalvi, Garofalakis; PVLDB 4(4), 2011).

Typical usage::

    from repro import (
        MLNMatcher, EMFramework, CanopyBlocker, build_total_cover, hepth_like,
    )

    dataset = hepth_like(scale=0.3)
    cover = build_total_cover(CanopyBlocker(), dataset.store)
    framework = EMFramework(MLNMatcher(), dataset.store, cover=cover)
    result = framework.run("mmp")
    print(result.match_set.clusters())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table and figure.
"""

from .blocking import (
    Blocker,
    CanopyBlocker,
    Cover,
    Neighborhood,
    build_total_cover,
    expand_to_total_cover,
)
from .core import (
    EMFramework,
    FullRun,
    MaximalMessagePassing,
    MaximalMessageSet,
    NoMessagePassing,
    SchemeResult,
    SimpleMessagePassing,
    UpperBoundScheme,
    compute_maximal_messages,
)
from .datamodel import (
    Entity,
    EntityPair,
    EntityStore,
    Evidence,
    MatchSet,
    Relation,
    make_author,
    make_paper,
)
from .datasets import (
    BibliographicDataset,
    BibliographyGenerator,
    GeneratorConfig,
    dblp_big_like,
    dblp_like,
    dblp_tiny,
    hepth_like,
    hepth_tiny,
    load_dataset,
    save_dataset,
)
from .evaluation import (
    ExperimentRunner,
    precision_recall_f1,
    soundness_completeness,
)
from .matchers import (
    IterativeMatcher,
    MLNMatcher,
    PairwiseMatcher,
    RulesMatcher,
    TypeIIMatcher,
    TypeIMatcher,
    check_well_behaved,
)
from .mln import MarkovLogicNetwork, paper_author_rules
from .parallel import GridExecutor, GridRunResult
from .streaming import (
    ChangeBatch,
    DeltaLog,
    StoreOverlay,
    StreamSession,
    load_delta_log,
    save_delta_log,
    synthesize_stream,
)

__version__ = "1.0.0"

__all__ = [
    "BibliographicDataset",
    "BibliographyGenerator",
    "Blocker",
    "CanopyBlocker",
    "ChangeBatch",
    "Cover",
    "DeltaLog",
    "EMFramework",
    "Entity",
    "EntityPair",
    "EntityStore",
    "Evidence",
    "ExperimentRunner",
    "FullRun",
    "GeneratorConfig",
    "GridExecutor",
    "GridRunResult",
    "IterativeMatcher",
    "MLNMatcher",
    "MarkovLogicNetwork",
    "MatchSet",
    "MaximalMessagePassing",
    "MaximalMessageSet",
    "Neighborhood",
    "NoMessagePassing",
    "PairwiseMatcher",
    "Relation",
    "RulesMatcher",
    "SchemeResult",
    "SimpleMessagePassing",
    "StoreOverlay",
    "StreamSession",
    "TypeIIMatcher",
    "TypeIMatcher",
    "UpperBoundScheme",
    "build_total_cover",
    "check_well_behaved",
    "compute_maximal_messages",
    "dblp_big_like",
    "dblp_like",
    "dblp_tiny",
    "expand_to_total_cover",
    "hepth_like",
    "hepth_tiny",
    "load_dataset",
    "load_delta_log",
    "save_delta_log",
    "synthesize_stream",
    "make_author",
    "make_paper",
    "paper_author_rules",
    "precision_recall_f1",
    "save_dataset",
    "soundness_completeness",
    "__version__",
]
