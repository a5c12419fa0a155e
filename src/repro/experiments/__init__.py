"""Experiment drivers: one module per table/figure in the paper.

Every module exposes ``run(...)`` (or a sweep's ``points`` / ``run_point``
/ ``assemble``) returning a structured result with a ``render()`` method
that prints the same rows/series the paper reports, and states the paper's
shapes it reproduces as ``CLAIMS`` (:mod:`repro.experiments.claims`).
:mod:`repro.experiments.registry` indexes them (``python -m repro list``;
DESIGN.md section 3 maps each to its figure); run one through it::

    python -m repro run fig09
"""
