"""Exact federated unlearning via sequential group training.

The package has three layers:

* closed-form analytics for deletion tolerance, remaining data, and cost
  (:mod:`fedsgt.analytics`, exact rational arithmetic underneath);
* Monte Carlo estimators that cross-check every closed form
  (:mod:`fedsgt.montecarlo`);
* a deterministic simulator: grouping, sequence construction, sequential
  adapter training, module banks, deletion streams, and an exactness audit
  that retrains surviving prefixes and compares them byte for byte.
"""

__version__ = "0.8.0"

from .analytics import (AnalyticParams, deletion_rate_fedcio,
                        deletion_rate_fedsgt, distinct_count_law,
                        expected_comm_cost,
                        expected_remaining_curve, expected_remaining_fedcio,
                        expected_remaining_fedsgt, expected_span,
                        expected_span_curve,
                        expected_span_given_m, matched_budget,
                        prob_m_distinct, prob_max_gap_le, training_cost)
from .bank import read_bank, write_bank
from .combinatorics import binomial, harmonic, stirling2
from .core import (BankFormatError, ConfigurationError, FedSGTError,
                   RunConfig, ServiceUnavailable, TrainingError,
                   default_config, validate_config)
from .dataset import Dataset, load_csv_dataset, save_csv_dataset, synth_dataset
from .fltrain import (CostMeter, ToyModel, TrainConfig, evaluate,
                      fedavg_train, predict, predict_proba, train_fedsgt,
                      train_sequence)
from .grouping import (GroupingPlan, SliceRef, build_grouping, group_of,
                       plan_from_json, plan_to_json)
from .montecarlo import (MCConfig, MCEstimate, mc_comm_cost,
                         mc_deletion_rate_fedcio, mc_deletion_rate_fedsgt,
                         mc_expected_remaining, mc_expected_span,
                         validation_grid)
from .sequencing import (SequenceSet, SequenceState, apply_deletion,
                         build_sequences, cyclic_span, fresh_state,
                         select_allseq, select_longseq, select_minseq,
                         state_from_json, state_to_json)
from .unlearn import (AuditReport, UnlearnRequest, exactness_audit,
                      fedcio_simulate, fedretrain_simulate, fedsgt_system,
                      run_stream, timeline_summary, uniform_requests,
                      write_timeline)

__all__ = [
    "__version__",
    # analytics
    "AnalyticParams", "deletion_rate_fedsgt", "deletion_rate_fedcio",
    "distinct_count_law", "prob_m_distinct", "prob_max_gap_le",
    "expected_span_given_m", "expected_span", "expected_span_curve",
    "expected_remaining_curve", "expected_remaining_fedsgt",
    "expected_remaining_fedcio", "expected_comm_cost", "matched_budget",
    "training_cost",
    # combinatorics
    "harmonic", "binomial", "stirling2",
    # core
    "FedSGTError", "ConfigurationError", "TrainingError", "BankFormatError",
    "ServiceUnavailable",
    "RunConfig", "default_config", "validate_config",
    # dataset
    "Dataset", "synth_dataset", "save_csv_dataset", "load_csv_dataset",
    # grouping
    "SliceRef", "GroupingPlan", "build_grouping", "group_of",
    "plan_to_json", "plan_from_json",
    # sequencing
    "SequenceSet", "SequenceState", "build_sequences", "fresh_state",
    "apply_deletion", "cyclic_span", "select_longseq", "select_minseq",
    "select_allseq", "state_to_json", "state_from_json",
    # training
    "TrainConfig", "ToyModel", "CostMeter", "train_sequence", "train_fedsgt",
    "fedavg_train", "predict", "predict_proba", "evaluate",
    # bank
    "write_bank", "read_bank",
    # unlearning
    "UnlearnRequest", "uniform_requests", "fedsgt_system", "run_stream",
    "write_timeline", "timeline_summary", "fedcio_simulate",
    "fedretrain_simulate", "exactness_audit", "AuditReport",
    # Monte Carlo
    "MCConfig", "MCEstimate", "mc_deletion_rate_fedsgt",
    "mc_deletion_rate_fedcio", "mc_expected_span", "mc_expected_remaining",
    "mc_comm_cost", "validation_grid",
]
