"""Exact computation in finite Coxeter groups: root systems, reflection
length, the absolute order, parabolic closures, and lattice tests for
intervals below involutions, with independent brute-force oracles."""

from .absorder import (
    IntervalPoset,
    interval_of_involution,
    is_lattice_bruteforce,
    is_lattice_structural,
    leq_T,
    meet,
    poset_to_dot,
    poset_to_json,
)
from .classify import (
    CounterexampleWitness,
    counterexample_witness,
    decompose_involution,
    has_central_minus_id,
    involution_class_table,
    is_good_type,
    lattice_by_classification,
    lattice_verdicts,
)
from .dihedral import Dihedral
from .element import (
    Element,
    GroupEnumeration,
    check_T_reduced,
    enumerate_group,
    from_word,
    identity,
    longest_element,
    reflection,
    simple_reflection,
)
from .field import FieldScalar
from .oracles import (
    cayley_interval_elements,
    dyer_reflection_length,
    hurwitz_orbits,
    t_reduced_expressions,
)
from .parabolic import (
    Parabolic,
    closure_of_roots,
    enumerate_involutions,
    parabolic_closure,
    standard_parabolic,
)
from .rootsystem import (
    CapExceededError,
    CoxeterError,
    CoxeterMatrix,
    InfiniteTypeError,
    RecognitionError,
    RootSystem,
    TypeLabel,
    UnsupportedBondError,
    named_coxeter_matrix,
    parse_label,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CheckResult",
    "CounterexampleWitness",
    "CoxeterError",
    "CoxeterMatrix",
    "Dihedral",
    "Element",
    "FieldScalar",
    "GroupEnumeration",
    "InfiniteTypeError",
    "IntervalPoset",
    "Parabolic",
    "RecognitionError",
    "RootSystem",
    "TypeLabel",
    "UnsupportedBondError",
    "cayley_interval_elements",
    "check_T_reduced",
    "closure_of_roots",
    "counterexample_witness",
    "decompose_involution",
    "dyer_reflection_length",
    "enumerate_group",
    "enumerate_involutions",
    "from_word",
    "has_central_minus_id",
    "hurwitz_orbits",
    "identity",
    "interval_of_involution",
    "involution_class_table",
    "is_good_type",
    "is_lattice_bruteforce",
    "is_lattice_structural",
    "lattice_by_classification",
    "lattice_verdicts",
    "leq_T",
    "longest_element",
    "meet",
    "named_coxeter_matrix",
    "parabolic_closure",
    "parse_label",
    "poset_to_dot",
    "poset_to_json",
    "reflection",
    "run_all",
    "simple_reflection",
    "standard_parabolic",
    "t_reduced_expressions",
]
