"""Exact federated unlearning via sequential group training.

The package has three layers:

* closed-form analytics for deletion tolerance, remaining data, and cost
  (:mod:`fedsgt.analytics`, exact rational arithmetic underneath);
* Monte Carlo estimators that cross-check every closed form
  (:mod:`fedsgt.montecarlo`);
* a deterministic simulator: grouping, sequence construction, sequential
  adapter training, module banks, deletion streams, and an exactness audit
  that retrains surviving prefixes and compares them byte for byte.

Every public name is imported from the module that defines it, as in
``from fedsgt.sequencing import build_sequences``; the package root
re-exports nothing.
"""

__version__ = "0.14.0"
