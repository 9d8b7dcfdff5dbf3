"""Finite relational structures, amalgamation properties, and exchangeable
sampling with subset-keyed randomness, plus a chi-square invariance harness.
"""

from .structures import (Signature, Structure, Injection, relabel, restrict,
                         canonical_form, serialize, deserialize,
                         load_structure, dump_structure)
from .embeddings import (NoEmbeddingError, iter_embeddings, enumerate_embeddings,
                         embedding_exists, is_isomorphic, automorphisms,
                         LazyStructure, ensure_lazy, natural_embedding)
from .theory import (Theory, Sentence, Atom, TheoryParseError, parse_theory,
                     load_theory, is_parametric, satisfies, enumerate_models)
from .randomness import (HierarchicalRandomSource, InducedOrdering,
                         induced_ordering, permutation_rank, SeedStream)
from .amalgamation import (FiniteClass, CapExceededError, builtin_class,
                           make_builtin_class, BUILTIN_CLASS_NAMES, k_hypergraphs,
                           from_theory, amalgams, check_ndap,
                           check_dap, check_jep, NdapReport, DapReport, JepReport)
from .rules import (DecisionFunction, TableDecisionFunction, TableEntry,
                    FunctionDecisionFunction, DecisionContext, context_key,
                    tuple_pattern, load_rules, rules_from_json, normalize_rules,
                    rules_signature)
from .samplers import (AmalgamationFailure, ZeroProbabilityConditioning,
                       sample_exchangeable, sample_m_exchangeable,
                       sample_maxseg_exchangeable, sample_framewise,
                       AgeIndexedLaw, age_indexed_from_sampler, sample_sequential,
                       ExchangeableSampler, MExchangeableSampler, MaxSegSampler,
                       FramewiseSampler, SequentialSampler)
from .stattests import (TestReport, EmpiricalLaw, empirical_law, test_equal_law,
                        test_exchangeability, test_relative_exchangeability,
                        test_dissociation)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "Signature", "Structure", "Injection", "relabel", "restrict",
    "is_isomorphic", "canonical_form", "serialize", "deserialize",
    "load_structure", "dump_structure",
    "NoEmbeddingError", "iter_embeddings", "enumerate_embeddings",
    "embedding_exists", "automorphisms", "LazyStructure", "natural_embedding",
    "Theory", "Sentence", "Atom", "TheoryParseError", "parse_theory",
    "load_theory", "is_parametric", "satisfies", "enumerate_models",
    "HierarchicalRandomSource", "InducedOrdering", "induced_ordering",
    "permutation_rank", "SeedStream",
    "FiniteClass", "CapExceededError", "builtin_class", "make_builtin_class",
    "BUILTIN_CLASS_NAMES", "k_hypergraphs", "from_theory",
    "amalgams", "check_ndap", "check_dap", "check_jep",
    "NdapReport", "DapReport", "JepReport",
    "DecisionFunction", "TableDecisionFunction", "TableEntry",
    "FunctionDecisionFunction", "DecisionContext", "context_key",
    "tuple_pattern", "load_rules", "rules_from_json", "normalize_rules",
    "rules_signature",
    "AmalgamationFailure", "ZeroProbabilityConditioning",
    "sample_exchangeable", "sample_m_exchangeable", "sample_maxseg_exchangeable",
    "sample_framewise", "AgeIndexedLaw", "age_indexed_from_sampler",
    "sample_sequential", "ExchangeableSampler", "MExchangeableSampler",
    "MaxSegSampler", "FramewiseSampler", "SequentialSampler", "ensure_lazy",
    "TestReport", "EmpiricalLaw", "empirical_law", "test_equal_law",
    "test_exchangeability", "test_relative_exchangeability", "test_dissociation",
    "catalog",
]
