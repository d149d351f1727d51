"""Violator spaces: axioms, bases, sampling bounds, and two randomized solvers.

A violator space is a finite ground set H together with a map V that
assigns to every subset G the set of elements whose addition would
change the problem, subject to two axioms (consistency and locality).
This package provides exact checkers for the axioms and the sampling
identity, basis computations, the one-round sample-then-grow solver and
the weight-doubling solver, the composite-space construction, the
interval-partition view of nondegenerate spaces, and a seeded benchmark
harness with explicit analytic bounds.
"""

from .core import (
    AxiomReport,
    BudgetExceeded,
    Counterexample,
    FuncSpace,
    RestrictedSpace,
    RoundRecord,
    RunTrace,
    ViolatorSpace,
    anti_basis,
    check_axioms,
    combinatorial_dimension,
    composite_rounds,
    composite_space,
    composite_violators,
    extreme_elements,
    find_basis,
    is_basis,
    is_nondegenerate,
    resolve_dimension,
    restrict,
)
from .algorithms import (
    SolveResult,
    SolverStall,
    WeightMap,
    default_safety_cap,
    german_algorithm,
    sa_forever,
    swiss_algorithm,
    weighted_sample,
)
from .harness import (
    BoundParams,
    SamplingReport,
    SamplingStats,
    composite_experiment,
    exact_sampling_stats,
    ga_experiment,
    sa_experiment,
    verify_sampling_lemma,
    write_report,
    write_trace_csv,
)
from .hypercube import (
    HypercubePartition,
    Interval,
    ViolationPattern,
    enumerate_partitions,
    load_partition,
    make_partition,
    partition_to_space,
    pattern_is_hypercube_partition,
    pattern_to_partition,
    random_partition,
    roundtrip_check,
    save_partition,
    violation_pattern,
)
from .instances import (
    Ball,
    ExplicitSpace,
    SebInstance,
    SebSpace,
    generate,
    load_explicit,
    load_seb,
    load_space,
    make_seb,
    miniball,
    save_explicit,
    save_seb,
    seb_violators,
    tabulate,
)
from .seeding import spawn
from .subsets import elements, full_mask, mask_of

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "Ball", "BoundParams", "BudgetExceeded", "Counterexample",
    "ExplicitSpace", "FuncSpace", "HypercubePartition", "Interval",
    "RestrictedSpace", "RoundRecord", "RunTrace", "SamplingReport",
    "SamplingStats", "SebInstance", "SebSpace", "SolveResult", "SolverStall",
    "ViolationPattern", "ViolatorSpace", "WeightMap",
    "anti_basis", "check_axioms", "combinatorial_dimension",
    "composite_experiment", "composite_rounds", "composite_space",
    "composite_violators", "default_safety_cap", "elements",
    "enumerate_partitions", "exact_sampling_stats", "extreme_elements",
    "find_basis", "full_mask", "ga_experiment", "generate",
    "german_algorithm", "is_basis", "is_nondegenerate", "load_explicit",
    "load_partition", "load_seb", "load_space", "make_partition", "make_seb",
    "mask_of", "miniball", "partition_to_space",
    "pattern_is_hypercube_partition", "pattern_to_partition",
    "random_partition", "resolve_dimension",
    "restrict", "roundtrip_check", "sa_experiment", "sa_forever",
    "save_explicit", "save_partition", "save_seb", "seb_violators",
    "spawn", "swiss_algorithm", "tabulate", "verify_sampling_lemma",
    "violation_pattern", "weighted_sample", "write_report",
    "write_trace_csv",
]
